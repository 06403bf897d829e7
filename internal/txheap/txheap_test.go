package txheap

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/persistmem/slpmt/internal/mem"
)

func newHeap() *Heap {
	return New([]mem.Layout{mem.DefaultLayout(16 << 20)}, nil)[0]
}

func TestAllocAlignsAndSeparates(t *testing.T) {
	h := newHeap()
	a := h.Alloc(5)
	b := h.Alloc(24)
	if !mem.AlignedTo(a, 8) || !mem.AlignedTo(b, 8) {
		t.Error("allocations not word aligned")
	}
	if b < a+8 {
		t.Error("allocations overlap")
	}
	if h.SizeOf(a) != 8 || h.SizeOf(b) != 24 {
		t.Errorf("sizes: %d, %d", h.SizeOf(a), h.SizeOf(b))
	}
}

func TestFreeReuseAndCoalesce(t *testing.T) {
	h := newHeap()
	a := h.Alloc(32)
	b := h.Alloc(32)
	c := h.Alloc(32)
	_ = c
	h.Free(a)
	h.Free(b) // coalesces with a: one 64-byte extent
	d := h.Alloc(64)
	if d != a {
		t.Errorf("coalesced region not reused: got %#x, want %#x", d, a)
	}
}

func TestFirstFitSplits(t *testing.T) {
	h := newHeap()
	a := h.Alloc(64)
	h.Alloc(8) // barrier so the free extent is isolated
	h.Free(a)
	b := h.Alloc(16)
	if b != a {
		t.Error("first fit ignored the free extent")
	}
	c := h.Alloc(48)
	if c != a+16 {
		t.Errorf("split remainder not used: got %#x, want %#x", c, a+16)
	}
}

func TestFreeUnknownPanics(t *testing.T) {
	h := newHeap()
	defer func() {
		if recover() == nil {
			t.Error("free of unknown address should panic")
		}
	}()
	h.Free(0x5000)
}

// TestQuarantine: memory freed inside a transaction is not handed back
// to the same transaction (the selective-logging soundness rule).
func TestQuarantine(t *testing.T) {
	h := newHeap()
	a := h.Alloc(64)
	h.BeginTx()
	h.Free(a)
	b := h.Alloc(64)
	if b == a {
		t.Fatal("freed block reused within the freeing transaction")
	}
	h.CommitTx()
	c := h.Alloc(64)
	if c != a {
		t.Errorf("freed block not reused after commit: got %#x, want %#x", c, a)
	}
}

func TestAbortRollsBack(t *testing.T) {
	h := newHeap()
	pre := h.Alloc(16)
	h.BeginTx()
	inTx := h.Alloc(16)
	h.Free(pre)
	h.AbortTx()
	if h.SizeOf(pre) != 16 {
		t.Error("abort did not reinstate the freed block")
	}
	if h.SizeOf(inTx) != 0 {
		t.Error("abort did not release the transaction's allocation")
	}
	// The aborted allocation's space is reusable.
	again := h.Alloc(16)
	if again != inTx {
		t.Errorf("aborted allocation not recycled: got %#x, want %#x", again, inTx)
	}
}

func TestRebuild(t *testing.T) {
	h := newHeap()
	a := h.Alloc(64)
	b := h.Alloc(32)
	c := h.Alloc(128)
	_ = b // b becomes unreachable (leaked by a crashed transaction)
	rep, err := Rebuild([]*Heap{h}, []Extent{{a, 64}, {c, 128}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReachableBlocks != 2 || rep.ReachableBytes != 192 {
		t.Errorf("report: %+v", rep)
	}
	if rep.ReclaimedGaps != 1 || rep.ReclaimedBytes != 32 {
		t.Errorf("leak not reclaimed: %+v", rep)
	}
	// The reclaimed gap is allocatable again.
	d := h.Alloc(32)
	if d != b {
		t.Errorf("reclaimed gap not reused: got %#x, want %#x", d, b)
	}
}

// TestRebuildCorruptScanErrors: a reachability scan the allocator cannot
// rebuild from is reported as an error, not a panic, so a corrupt crash
// image fails its point instead of the process, and a Reset after it
// still returns the handles to a fresh heap.
func TestRebuildCorruptScanErrors(t *testing.T) {
	h := newHeap()
	a := h.Alloc(64)
	if _, err := Rebuild([]*Heap{h}, []Extent{{a, 64}, {a + 32, 64}}); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Errorf("overlapping extents: err = %v", err)
	}
	if _, err := Rebuild([]*Heap{h}, []Extent{{0, 64}}); err == nil || !strings.Contains(err.Error(), "outside every span") {
		t.Errorf("extent outside the heap: err = %v", err)
	}
	for _, size := range []uint64{1 << 62, ^uint64(0)} {
		if _, err := Rebuild([]*Heap{h}, []Extent{{a, 64}, {a + 64, size}}); err == nil || !strings.Contains(err.Error(), "crosses its span's end") {
			t.Errorf("extent of %d B: err = %v", size, err)
		}
		Reset([]*Heap{h})
		if rep, err := Rebuild([]*Heap{h}, []Extent{{a, 64}}); err != nil || rep.ReachableBlocks != 1 {
			t.Errorf("rebuild after a reset: %+v, %v", rep, err)
		}
	}
}

// TestResetRebuildMatchesFresh: Reset plus Rebuild on handles that have
// allocated, freed and crashed mid-transaction gives the report, live
// set, free space and totals of a Rebuild on fresh handles.
func TestResetRebuildMatchesFresh(t *testing.T) {
	for _, sockets := range []int{1, 2} {
		layouts := mem.MultiLayoutSockets(64<<20, 2, sockets)
		used := New(layouts, nil)
		a := used[0].Alloc(64)
		b := used[1].Alloc(LargeAllocBytes)
		used[0].Free(used[0].Alloc(96))
		used[1].BeginTx()
		used[1].Alloc(32)
		reach := func() []Extent { return []Extent{{b, LargeAllocBytes}, {a, 64}} }

		fresh := New(layouts, nil)
		want, err := Rebuild(fresh, reach())
		if err != nil {
			t.Fatal(err)
		}
		Reset(used)
		got, err := Rebuild(used, reach())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d socket(s): report %+v, fresh %+v", sockets, got, want)
		}
		for i := range used {
			if !slices.Equal(used[i].Live(), fresh[i].Live()) {
				t.Errorf("%d socket(s): core %d live %v, fresh %v", sockets, i, used[i].Live(), fresh[i].Live())
			}
			var gs, ws [4]uint64
			gs[0], gs[1], gs[2], gs[3] = used[i].Stats()
			ws[0], ws[1], ws[2], ws[3] = fresh[i].Stats()
			if gs != ws {
				t.Errorf("%d socket(s): core %d stats %v, fresh %v", sockets, i, gs, ws)
			}
			// The same allocation lands at the same address.
			if g, w := used[i].Alloc(48), fresh[i].Alloc(48); g != w {
				t.Errorf("%d socket(s): core %d next alloc %#x, fresh %#x", sockets, i, g, w)
			}
		}
	}
}

// TestAllocFreeProperty: under random alloc/free sequences, live blocks
// never overlap each other or the free list.
func TestAllocFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHeap()
		var live []mem.Addr
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				h.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			} else {
				live = append(live, h.Alloc(uint64(rng.Intn(200)+1)))
			}
		}
		// Verify no two live blocks overlap.
		ext := h.Live()
		for i := 1; i < len(ext); i++ {
			if ext[i-1].End() > ext[i].Addr {
				return false
			}
		}
		// Every Live extent matches a tracked address.
		if len(ext) != len(live) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	h := newHeap()
	a := h.Alloc(100) // rounds to 104
	h.Free(a)
	allocs, frees, bytes, liveB := h.Stats()
	if allocs != 1 || frees != 1 || bytes != 104 || liveB != 0 {
		t.Errorf("stats: %d %d %d %d", allocs, frees, bytes, liveB)
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	h := New([]mem.Layout{{HeapBase: 64, HeapSize: 128}}, nil)[0]
	h.Alloc(128)
	defer func() {
		if recover() == nil {
			t.Error("exhausted heap should panic")
		}
	}()
	h.Alloc(8)
}

// TestHeapPast4GiBPanics: a log entry packs an address into 32 bits, so
// New refuses a heap that ends past 4 GiB.
func TestHeapPast4GiBPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "past 4 GiB") {
			t.Errorf("heap ending past 4 GiB: panic %v", r)
		}
	}()
	New([]mem.Layout{{HeapBase: 1<<32 - 64, HeapSize: 128}}, nil)
}

// TestFreeListBoundWorstCaseFragmentation fragments a span as far as it
// goes: 8-byte blocks fill a 4,104-byte heap and every other one is
// freed, leaving 257 free extents, freeCap's bound for that size, each
// separated from the next by one live block. The free list keeps the
// capacity the span was built with, the span checks out, freeing a live
// block between two extents (which joins them) still works at the
// bound, and an extent past the bound panics.
func TestFreeListBoundWorstCaseFragmentation(t *testing.T) {
	const size = 4104
	h := New([]mem.Layout{{HeapBase: mem.LineSize, HeapSize: size}}, nil)[0]
	s := h.global
	bound := cap(s.free)
	if bound != freeCap(size) || bound != 257 {
		t.Fatalf("free list capacity %d, want freeCap(%d) = 257", bound, size)
	}
	var blocks []mem.Addr
	for i := 0; i < size/8; i++ {
		blocks = append(blocks, h.Alloc(8))
	}
	for i := 0; i < len(blocks); i += 2 {
		h.Free(blocks[i])
		if cap(s.free) != bound {
			t.Fatalf("free %d: free list capacity %d, want %d", i/2, cap(s.free), bound)
		}
	}
	if len(s.free) != bound {
		t.Fatalf("%d free extents, want the bound %d", len(s.free), bound)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	// At the bound, a free that joins two extents still works.
	h.Free(blocks[1])
	if len(s.free) != bound-1 || cap(s.free) != bound {
		t.Fatalf("after a coalescing free: %d extents of capacity %d, want %d of %d", len(s.free), cap(s.free), bound-1, bound)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	// Back at the bound (an extent past the span; nothing checks it
	// here), one more separate extent panics.
	s.insertFree(Extent{s.limit + 8, 8})
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "free-extent list full") {
			t.Fatalf("insert past the bound: recovered %v, want a free-extent list full panic", r)
		}
	}()
	s.insertFree(Extent{s.limit + 32, 8})
}
