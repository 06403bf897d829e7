package pmem

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/persistmem/slpmt/internal/trace"
)

// drainBacklogs empties the process-wide list of grown backlogs, so a
// test sees the growth of a process that has grown none yet.
func drainBacklogs() {
	for {
		if _, ok := backlogs.Get(); !ok {
			return
		}
	}
}

// burst posts n asynchronous 64 B entries at one cycle apart from now,
// on a device whose write latency keeps them queued, and returns the
// backlog's array after the last one.
func burst(d *Device, now uint64, n int) *entry {
	data := make([]byte, 64)
	for i := 0; i < n; i++ {
		d.PersistAsync(now+uint64(i), uint64(i%1024)*64, data)
	}
	return unsafe.SliceData(d.queue)
}

// slowConfig keeps a burst's entries queued long enough to pile up.
var slowConfig = Config{Size: 1 << 16, WriteCycles: 1 << 20, Banks: 1}

// TestBacklogReuse: a burst within minQueueCap entries takes no lock on
// backlogs; a warm device's 4,096-entry burst allocates nothing; and
// the backlog a device empties, or drops at reset, is the backing array
// the next device grows into.
func TestBacklogReuse(t *testing.T) {
	drainBacklogs()
	d := New(slowConfig)
	ops := backlogs.Ops()
	for round := 0; round < 3; round++ {
		if arr := burst(d, 0, minQueueCap); arr != &d.first[0] {
			t.Fatalf("a %d-entry burst left the device's first backlog", minQueueCap)
		}
		if got := d.QueueDepth(1 << 40); got != 0 {
			t.Fatalf("%d entries left after a full drain", got)
		}
	}
	if got := backlogs.Ops() - ops; got != 0 {
		t.Errorf("%d-entry bursts took the list's lock %d times, want 0", minQueueCap, got)
	}

	const large = 4096
	grown := burst(d, 1<<41, large)
	d.QueueDepth(1 << 62)
	if cap(d.queue) != minQueueCap || unsafe.SliceData(d.queue) != &d.first[0] {
		t.Fatalf("an emptied backlog has capacity %d, want the first backlog of %d", cap(d.queue), minQueueCap)
	}
	next := New(slowConfig)
	if arr := burst(next, 0, large); arr != grown {
		t.Errorf("the next device's backlog is not the array the first device emptied")
	}
	// A reset drops the grown backlog it still holds, entries and all.
	next.reset()
	if cap(next.queue) != minQueueCap || len(next.queue) != 0 {
		t.Fatalf("a reset device's backlog has length %d, capacity %d; want 0, %d", len(next.queue), cap(next.queue), minQueueCap)
	}
	if arr := burst(New(slowConfig), 0, large); arr != grown {
		t.Errorf("the device after a reset does not grow into the array the reset dropped")
	}

	clock := uint64(0)
	warm := func() {
		clock += 1 << 40
		burst(next, clock, large)
		next.QueueDepth(clock + 1<<39)
	}
	warm()
	if allocs := testing.AllocsPerRun(5, warm); allocs != 0 {
		t.Errorf("a warm device's %d-entry burst allocates %.1f times, want 0", large, allocs)
	}
}

// backlogRun is everything a device's timing shows of one persist
// sequence.
type backlogRun struct {
	Stalls         []uint64
	Depths         []int
	MaxOcc, AvgOcc uint64
	Enqueued       uint64
	StallCycles    uint64
	Events         []trace.Event
}

// runBacklog drives d through a seeded sequence of phases from two
// cores whose clocks interleave out of order: bursts of posted persists
// that grow the backlog to thousands of entries, a few synchronous and
// streamed persists that wait for it, and gaps long enough to drain it
// empty.
func runBacklog(d *Device, seed int64) backlogRun {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(1 << 18)
	d.SetTracer(tr)
	defer d.SetTracer(nil)
	var r backlogRun
	data := make([]byte, 64)
	clocks := [2]uint64{0, 500}
	persist := func(kind int) {
		c := rng.Intn(2)
		d.SetCore(c)
		addr := uint64(rng.Intn(1024)) * 64
		var stall uint64
		switch kind {
		case 0:
			stall = d.PersistAsync(clocks[c], addr, data[:8+rng.Intn(57)])
		case 1:
			stall = d.PersistStream(clocks[c], addr, data)
		default:
			stall = d.Persist(clocks[c], addr, data)
		}
		r.Stalls = append(r.Stalls, stall)
		clocks[c] += stall
		if len(r.Stalls)%97 == 0 {
			r.Depths = append(r.Depths, d.QueueDepth(min(clocks[0], clocks[1])))
		}
	}
	for phase := 0; phase < 16; phase++ {
		switch rng.Intn(4) {
		case 0, 1:
			for n := rng.Intn(2000); n > 0; n-- {
				persist(0)
			}
		case 2:
			for n := rng.Intn(8); n > 0; n-- {
				persist(1 + rng.Intn(2))
			}
		default:
			clocks[0] = max(clocks[0], clocks[1]) + uint64(rng.Intn(1<<24))
			clocks[1] = clocks[0] + 500
		}
	}
	r.Depths = append(r.Depths, d.QueueDepth(max(clocks[0], clocks[1])), d.QueueDepth(1<<62))
	r.MaxOcc, r.AvgOcc = d.OccupancyStats()
	r.Enqueued, r.StallCycles = d.Stats()
	r.Events = tr.Events()
	return r
}

// backlogConfig banks two entries at a time, so posted bursts outrun
// the drain.
var backlogConfig = Config{Size: 1 << 16, WriteCycles: 4000}

// TestBacklogReuseWarmMatchesCold: the same persist sequence gives the
// same stalls, queue depths, occupancy, totals and WPQ trace events on
// a device that grows its backlog from nothing and on one that grows
// into buffers another device filled with stale entries and handed
// back.
func TestBacklogReuseWarmMatchesCold(t *testing.T) {
	drainBacklogs()
	ops := backlogs.Ops()
	cold := runBacklog(New(backlogConfig), 1)
	if len(cold.Events) == 0 {
		t.Fatal("cold run: no events kept")
	}
	// Each growth episode takes the list's lock at least twice: to grow
	// past the first backlog and to hand the grown one back.
	if maxDepth, locked := slices.Max(cold.Depths), backlogs.Ops()-ops; maxDepth < 1000 || locked < 4 {
		t.Fatalf("the backlog reached only %d entries, with %d locked operations", maxDepth, locked)
	}
	// A different sequence leaves stale entries in the kept backlogs.
	stale := New(backlogConfig)
	runBacklog(stale, 2)
	burst(stale, 1<<50, 3000)
	stale.reset()
	warmOps := backlogs.Ops()
	warm := runBacklog(New(backlogConfig), 1)
	if backlogs.Ops() == warmOps {
		t.Fatal("the warm run took no kept backlog")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("a warm device's run differs from a cold one's")
		for i := range min(len(cold.Stalls), len(warm.Stalls)) {
			if cold.Stalls[i] != warm.Stalls[i] {
				t.Errorf("first stall difference at persist %d: %d cold, %d warm", i, cold.Stalls[i], warm.Stalls[i])
				break
			}
		}
	}
}

// TestBacklogReuseConcurrent: two goroutines build fresh devices and
// run the same persist sequence on each, growing and handing back
// backlogs through the one shared list at once, and every run matches
// a serial reference (under -race, make race checks the list's locking
// too).
func TestBacklogReuseConcurrent(t *testing.T) {
	ref := runBacklog(New(backlogConfig), 3)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if !reflect.DeepEqual(runBacklog(New(backlogConfig), 3), ref) {
					errs <- "a concurrent run differs from the serial reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
