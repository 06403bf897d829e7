package pmem

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func line(b byte) []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestDurableAtEnqueue(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	d.Persist(0, 128, line(0xAB))
	got := make([]byte, 64)
	d.Read(128, got)
	if !bytes.Equal(got, line(0xAB)) {
		t.Error("data not durable immediately after Persist")
	}
	img := d.Crash()
	if img.ReadU64(128) != 0xABABABABABABABAB {
		t.Error("crash image missing persisted data")
	}
}

func TestPersistStallComponents(t *testing.T) {
	cfg := Config{Size: 1 << 20, WPQBytes: 128, EnqueueCycles: 8,
		WriteCycles: 1000, AckCycles: 100, Banks: 1}
	d := New(cfg)
	// Synchronous persists wait for enqueue + the entry's medium
	// completion + the acknowledgement round trip.
	s1 := d.Persist(0, 0, line(1))
	if s1 != 8+1000+100 {
		t.Errorf("first persist stall = %d, want 1108", s1)
	}
	// After the wait the queue has drained; the next persist pays the
	// same full service time, not more.
	s2 := d.Persist(s1, 64, line(2))
	if s2 != 1108 {
		t.Errorf("second persist stall = %d, want 1108", s2)
	}
}

func TestBankedDrainParallelism(t *testing.T) {
	// A streamed burst (issued back-to-back, no per-entry completion
	// wait) drains Banks-wide: the completion time of 8 entries shrinks
	// with more banks. Synchronous persists serialize by construction,
	// so bank parallelism is only visible on streamed/posted bursts.
	mk := func(banks int) uint64 {
		d := New(Config{Size: 1 << 20, WPQBytes: 64 * 16, Banks: banks,
			EnqueueCycles: 8, WriteCycles: 1000, AckCycles: 1})
		now := uint64(0)
		for i := 0; i < 8; i++ {
			now += d.PersistStream(now, uint64(i*64), line(byte(i)))
		}
		return d.DrainAll(now)
	}
	serial := mk(1)
	quad := mk(4)
	if quad >= serial {
		t.Errorf("banked drain (%d) not faster than serial (%d)", quad, serial)
	}
	if serial < 8*1000 {
		t.Errorf("serial drain of 8 entries finished in %d cycles (< 8 writes)", serial)
	}
}

func TestPersistAsyncDoesNotStall(t *testing.T) {
	d := New(Config{Size: 1 << 20, WPQBytes: 128, EnqueueCycles: 8,
		WriteCycles: 1000, AckCycles: 100, Banks: 1})
	// Fill well past WPQ capacity asynchronously: stall stays at the
	// enqueue latency every time.
	for i := 0; i < 32; i++ {
		if s := d.PersistAsync(0, uint64(i*64), line(byte(i))); s != 8 {
			t.Fatalf("async persist %d stalled %d cycles", i, s)
		}
	}
	// But the backlog is visible to a subsequent synchronous persist.
	s := d.Persist(0, 4096, line(0xFF))
	if s < 1000 {
		t.Errorf("sync persist after async backlog stalled only %d cycles", s)
	}
}

func TestPersistStreamSkipsAck(t *testing.T) {
	d := New(Config{Size: 1 << 20, EnqueueCycles: 8, WriteCycles: 1000,
		AckCycles: 500, Banks: 2})
	s := d.PersistStream(0, 0, line(1))
	if s != 8 {
		t.Errorf("stream persist stall = %d, want 8", s)
	}
}

func TestPersistBoundsChecks(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	for _, fn := range []func(){
		func() { d.Persist(0, 1<<20-8, line(1)) },
		func() { d.Read(1<<20-8, make([]byte, 64)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected out-of-range panic")
				}
			}()
			fn()
		}()
	}
}

// mustPanic runs fn and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

// TestConfigLimits: the packed WPQ entry holds a 32-bit address and a
// 16-bit byte count, so New and NewTopology refuse a larger device or
// queue before building anything, and a queue of exactly MaxWPQBytes
// takes and retires a full-size entry.
func TestConfigLimits(t *testing.T) {
	for _, cfg := range []Config{{Size: MaxSize + PageSize}, {WPQBytes: MaxWPQBytes + 1}, {WPQBytes: -1}} {
		want := "WPQ capacity"
		if cfg.Size != 0 {
			want = "device size"
		}
		mustPanic(t, want, func() { New(cfg) })
		mustPanic(t, want, func() { NewTopology(TopoConfig{Sockets: 2, Dev: cfg}) })
	}

	d := New(Config{Size: 1 << 20, WPQBytes: MaxWPQBytes, Banks: 1})
	d.PersistAsync(0, 0, make([]byte, MaxWPQBytes))
	if d.usedBytes != MaxWPQBytes {
		t.Errorf("full-size entry occupies %d bytes, want %d", d.usedBytes, MaxWPQBytes)
	}
	if got := d.QueueDepth(1 << 40); got != 0 || d.usedBytes != 0 {
		t.Errorf("after the drain: %d entries, %d bytes queued", got, d.usedBytes)
	}
}

// TestPersistAsyncTooLarge: a posted persist, like a synchronous one,
// takes at most one WPQ's worth of bytes.
func TestPersistAsyncTooLarge(t *testing.T) {
	d := New(Config{Size: 1 << 20, WPQBytes: 128})
	d.PersistAsync(0, 0, make([]byte, 128))
	mustPanic(t, "larger than WPQ: 129 > 128", func() { d.PersistAsync(0, 0, make([]byte, 129)) })
	mustPanic(t, "larger than WPQ: 129 > 128", func() { d.Persist(0, 0, make([]byte, 129)) })
}

// TestPackedEntry pins the WPQ entry at 16 bytes, and the bank window's
// buffer at the 4·Banks+1 entries bankFinish can hold: it is allocated
// once and survives a topology reset.
func TestPackedEntry(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Errorf("WPQ entry is %d bytes, want 16", got)
	}
	topo := NewTopology(TopoConfig{Dev: Config{Size: 1 << 20, Banks: 3}})
	d := topo.Dev(0)
	buf := d.recent[:1]
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < 100; i++ {
			d.PersistAsync(i*8, i*64%(1<<20), line(1))
			if len(d.recent) > 4*3+1 {
				t.Fatalf("bank window holds %d finish times", len(d.recent))
			}
		}
		if cap(d.recent) != 4*3+1 || &d.recent[:1][0] != &buf[0] {
			t.Fatalf("round %d: bank window reallocated (cap %d)", round, cap(d.recent))
		}
		topo.Reset()
	}
}

// TestBacklogGrowsByDoubling posts 16,384 asynchronous 64 B entries to
// a device whose write latency keeps every one of them queued: from an
// empty backlogs, the backlog must pass through the capacities
// minQueueCap, twice that, and so on to 16,384 and no others, as
// doubling does (append's 1.25x steps for large slices would take many
// more, smaller ones).
func TestBacklogGrowsByDoubling(t *testing.T) {
	const posts = 16384
	drainBacklogs()
	d := New(Config{Size: posts * 64, WriteCycles: 1 << 40, Banks: 1})
	data := line(1)
	var steps []int
	for i := uint64(0); i < posts; i++ {
		d.PersistAsync(i*8, i*64, data)
		if c := cap(d.queue); len(steps) == 0 || steps[len(steps)-1] != c {
			steps = append(steps, c)
		}
	}
	if len(d.queue) != posts {
		t.Fatalf("%d entries queued, want %d", len(d.queue), posts)
	}
	want := []int{minQueueCap}
	for want[len(want)-1] < posts {
		want = append(want, 2*want[len(want)-1])
	}
	if !slices.Equal(steps, want) {
		t.Errorf("backlog capacities %v, want %v", steps, want)
	}
}

func TestQueueDepthDrains(t *testing.T) {
	d := New(Config{Size: 1 << 20, WPQBytes: 512, WriteCycles: 1000, Banks: 1,
		EnqueueCycles: 8, AckCycles: 1})
	// Posted persists leave entries in flight.
	for i := 0; i < 4; i++ {
		d.PersistAsync(0, uint64(i*64), line(1))
	}
	if d.QueueDepth(10) == 0 {
		t.Error("queue unexpectedly empty right after posted enqueues")
	}
	if got := d.QueueDepth(100000); got != 0 {
		t.Errorf("queue depth after long drain = %d, want 0", got)
	}
}

// TestImageAccessors covers an image that is one partial page long.
func TestImageAccessors(t *testing.T) {
	d := New(Config{Size: 1024})
	d.Persist(0, 1024-64, line(7))
	img := d.Crash()
	if img.Size() != 1024 {
		t.Fatalf("Size = %d, want 1024", img.Size())
	}
	img.ForEachPage(func(base uint64, page []byte) {
		if base != 0 || len(page) != 1024 {
			t.Errorf("page at %#x holds %d bytes, want 0 and 1024", base, len(page))
		}
	})
	if img.ReadU64(1024-64) != 0x0707070707070707 {
		t.Error("persisted word missing from the image")
	}
	img.WriteU64(8, 0xdeadbeefcafe)
	if img.ReadU64(8) != 0xdeadbeefcafe {
		t.Error("image u64 roundtrip failed")
	}
	img.WriteU64(1016, 42)
	if img.ReadU64(1016) != 42 {
		t.Error("last-word u64 roundtrip failed")
	}
	img.Write(100, []byte{1, 2, 3})
	buf := make([]byte, 3)
	img.Read(100, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Error("image byte roundtrip failed")
	}
	for _, op := range []func(){
		func() { img.Read(1020, make([]byte, 8)) },
		func() { img.Write(1024, []byte{1}) },
		func() { img.ReadU64(1 << 40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("access past the end did not panic")
				}
			}()
			op()
		}()
	}
}

func TestDefaults(t *testing.T) {
	d := New(Config{})
	cfg := d.Config()
	if cfg.Size != DefaultSize || cfg.WPQBytes != DefaultWPQBytes ||
		cfg.WriteCycles != DefaultWriteCycles || cfg.Banks != DefaultBanks {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}
