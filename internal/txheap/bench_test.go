package txheap

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/persistmem/slpmt/internal/mem"
)

// churn is one transaction of BenchmarkAllocFree: it frees eight of
// the standing blocks and allocates a replacement for each, of a size
// that cycles through a few words.
func churn(h *Heap, live []mem.Addr, i int) {
	h.BeginTx()
	for j := 0; j < 8; j++ {
		k := (i*8 + j) % len(live)
		h.Free(live[k])
		live[k] = h.Alloc(uint64(16 + 8*((i+j)%12)))
	}
	h.CommitTx()
}

// BenchmarkAllocFree runs alloc/free churn inside transactions over a
// standing population of 256 blocks: the quarantined frees return to
// the free list at each commit and the next transaction reuses them.
// Once the free list and the handle's extent log have grown, an
// operation allocates nothing. Run with
// `go test -run '^$' -bench . -benchmem ./internal/txheap/`.
func BenchmarkAllocFree(b *testing.B) {
	h := newHeap()
	live := make([]mem.Addr, 256)
	for i := range live {
		live[i] = h.Alloc(uint64(16 + 8*(i%12)))
	}
	for i := 0; i < 1024; i++ {
		churn(h, live, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(h, live, i)
	}
}

// TestHeapLogReuse: under the epoch quarantine, a rehash-shaped pair —
// one transaction allocating 2,048 node copies, the next freeing the
// 2,048 old nodes, then the epoch close's release — reuses the handle's
// extent log and the span's free list once they have grown, and
// allocates nothing.
func TestHeapLogReuse(t *testing.T) {
	const nodes = 2048
	h := newHeap()
	h.EpochQuarantine(true)
	old, copies := make([]mem.Addr, nodes), make([]mem.Addr, nodes)
	for i := range old {
		old[i] = h.Alloc(48)
	}
	rehash := func() {
		h.BeginTx()
		for i := range copies {
			copies[i] = h.Alloc(48)
		}
		h.CommitTx()
		h.BeginTx()
		for _, a := range old {
			h.Free(a)
		}
		h.CommitTx()
		h.ReleaseEpochFrees()
		old, copies = copies, old
	}
	for i := 0; i < 4; i++ {
		rehash()
	}
	if allocs := testing.AllocsPerRun(20, rehash); allocs != 0 {
		t.Errorf("a rehash-shaped transaction pair allocates %.1f times, want 0", allocs)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// drainExtentLogs empties the process-wide list of grown extent logs,
// so a test sees the growth of a process that has grown none yet.
func drainExtentLogs() {
	for {
		if _, ok := extentLogs.Get(); !ok {
			return
		}
	}
}

// TestExtentLogGrowsByDoubling: from an empty extentLogs, a rehash-sized
// transaction that frees 3,000 standing blocks and allocates 3,000
// copies grows the handle's extent log from minLogCap in doubling steps
// only, to the first power of two that holds its 6,000 entries
// (append's 1.25x steps for large slices would take many more, smaller
// ones).
func TestExtentLogGrowsByDoubling(t *testing.T) {
	const nodes = 3000
	drainExtentLogs()
	h := newHeap()
	old := make([]mem.Addr, nodes)
	for i := range old {
		old[i] = h.Alloc(48)
	}
	var steps []int
	h.BeginTx()
	for i := 0; i < 2*nodes; i++ {
		if i%2 == 0 {
			h.Free(old[i/2])
		} else {
			h.Alloc(48)
		}
		if c := cap(h.log); len(steps) == 0 || steps[len(steps)-1] != c {
			steps = append(steps, c)
		}
	}
	h.CommitTx()
	want := []int{minLogCap}
	for want[len(want)-1] < 2*nodes {
		want = append(want, 2*want[len(want)-1])
	}
	if !slices.Equal(steps, want) {
		t.Errorf("extent log capacities %v, want %v", steps, want)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestExtentLogReuse: a transaction of at most minLogCap entries
// allocates nothing and takes no lock on extentLogs once its handle has
// its first log, and a rehash-sized log emptied on one machine's heap
// is the log the next machine's rehash-sized transaction grows into,
// in one step from the handle's first log.
func TestExtentLogReuse(t *testing.T) {
	drainExtentLogs()
	small := newHeap()
	blocks := make([]mem.Addr, minLogCap/2)
	tx := func() {
		small.BeginTx()
		for i := range blocks {
			blocks[i] = small.Alloc(32)
		}
		for _, a := range blocks {
			small.Free(a)
		}
		small.CommitTx()
	}
	tx()
	ops := extentLogs.Ops()
	if allocs := testing.AllocsPerRun(20, tx); allocs != 0 {
		t.Errorf("a %d-entry transaction allocates %.1f times, want 0", minLogCap, allocs)
	}
	if got := extentLogs.Ops() - ops; got != 0 {
		t.Errorf("a %d-entry transaction took the list's lock %d times, want 0", minLogCap, got)
	}

	// rehash logs 3,000 allocations and returns the log's capacity steps
	// and its array before the commit empties it.
	rehash := func(h *Heap) ([]int, *uint64) {
		h.BeginTx()
		var steps []int
		for i := 0; i < 3000; i++ {
			h.Alloc(48)
			if c := cap(h.log); len(steps) == 0 || steps[len(steps)-1] != c {
				steps = append(steps, c)
			}
		}
		arr := unsafe.SliceData(h.log)
		h.CommitTx()
		return steps, arr
	}
	first := newHeap()
	_, grown := rehash(first)
	if cap(first.log) != minLogCap {
		t.Fatalf("an emptied handle keeps a log of capacity %d, want its first of %d", cap(first.log), minLogCap)
	}
	steps, arr := rehash(newHeap())
	if want := []int{minLogCap, 4096}; !slices.Equal(steps, want) || arr != grown {
		t.Errorf("the next machine's extent log capacities %v, same array %v; want %v, the first machine's array", steps, arr == grown, want)
	}
}

// TestCheckAllocFree: Check walks the block index of every span without
// allocating, on a heap with live, quarantined and free blocks in both
// arenas and the global span.
func TestCheckAllocFree(t *testing.T) {
	heaps, _ := newSharded(t)
	var blocks []mem.Addr
	for i := 0; i < 64; i++ {
		blocks = append(blocks, heaps[i%4].Alloc(uint64(8+8*(i%9))))
	}
	blocks = append(blocks, heaps[1].Alloc(LargeAllocBytes))
	for i := 0; i < len(blocks); i += 3 {
		heaps[0].Free(blocks[i])
	}
	heaps[2].BeginTx()
	heaps[2].Free(blocks[1])
	if allocs := testing.AllocsPerRun(20, func() {
		if err := heaps[3].Check(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Check allocates %.1f times per call, want 0", allocs)
	}
}
