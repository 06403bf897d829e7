package txheap

import (
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
)

// newSharded builds the per-core handles of a 4-core / 2-socket machine
// over a 64 MiB device: arenas are the first four 1 MiB stripes, the
// global fallback is everything past them.
func newSharded(t *testing.T) ([]*Heap, []mem.Layout) {
	t.Helper()
	layouts := mem.MultiLayoutSockets(64<<20, 4, 2)
	return New(layouts, nil), layouts
}

func TestShardedArenaCarving(t *testing.T) {
	heaps, layouts := newSharded(t)
	if len(heaps) != len(layouts) {
		t.Fatalf("%d handles for %d layouts", len(heaps), len(layouts))
	}
	for i, h := range heaps {
		ar := h.Arenas()
		if len(ar) != 2 {
			t.Fatalf("core %d: %d spans, want arena+fallback", i, len(ar))
		}
		if ar[0].Addr != layouts[i].ArenaBase || ar[0].Size != layouts[i].ArenaSize {
			t.Errorf("core %d arena [%#x,%d), want [%#x,%d)",
				i, ar[0].Addr, ar[0].Size, layouts[i].ArenaBase, layouts[i].ArenaSize)
		}
		// The fallback starts where the last arena ends and runs to the
		// end of the heap — shared by every handle.
		last := layouts[len(layouts)-1]
		wantBase := last.ArenaBase + last.ArenaSize
		wantEnd := layouts[0].HeapBase + layouts[0].HeapSize
		if ar[1].Addr != wantBase || ar[1].End() != wantEnd {
			t.Errorf("core %d fallback [%#x,%#x), want [%#x,%#x)",
				i, ar[1].Addr, ar[1].End(), wantBase, wantEnd)
		}
	}
	// Ordinary allocations land in the allocating core's own arena — on
	// its home socket under the stripe interleave.
	for i, h := range heaps {
		a := h.Alloc(64)
		if a < layouts[i].ArenaBase || a >= layouts[i].ArenaBase+layouts[i].ArenaSize {
			t.Errorf("core %d alloc %#x outside its arena", i, a)
		}
		if got, want := layouts[i].SocketOf(a), i%2; got != want {
			t.Errorf("core %d alloc on socket %d, want home socket %d", i, got, want)
		}
	}
}

func TestShardedLargeAllocGoesToFallback(t *testing.T) {
	heaps, _ := newSharded(t)
	h := heaps[0]
	fb := h.Arenas()[1]
	a := h.Alloc(LargeAllocBytes)
	if a < fb.Addr || a >= fb.End() {
		t.Errorf("large alloc %#x not in fallback [%#x,%#x)", a, fb.Addr, fb.End())
	}
	// Just under the threshold stays arena-local.
	b := h.Alloc(LargeAllocBytes - 8)
	ar := h.Arenas()[0]
	if b < ar.Addr || b >= ar.End() {
		t.Errorf("sub-threshold alloc %#x not in arena [%#x,%#x)", b, ar.Addr, ar.End())
	}
}

func TestShardedBurstSpillsToFallback(t *testing.T) {
	heaps, _ := newSharded(t)
	h := heaps[0]
	ar, fb := h.Arenas()[0], h.Arenas()[1]
	h.BeginTx()
	// Fill the per-transaction budget with small arena-local allocations.
	var allocated uint64
	for allocated < BurstSpillBytes {
		a := h.Alloc(512)
		if a < ar.Addr || a >= ar.End() {
			t.Fatalf("pre-budget alloc %#x left the arena", a)
		}
		allocated += 512
	}
	// The next allocation of the same transaction spills.
	sp := h.Alloc(512)
	if sp < fb.Addr || sp >= fb.End() {
		t.Errorf("post-budget alloc %#x not in fallback", sp)
	}
	h.CommitTx()
	// A fresh transaction is arena-local again.
	h.BeginTx()
	a := h.Alloc(512)
	if a < ar.Addr || a >= ar.End() {
		t.Errorf("next-transaction alloc %#x not back in the arena", a)
	}
	h.CommitTx()
}

func TestShardedCrossHandleFree(t *testing.T) {
	heaps, _ := newSharded(t)
	a := heaps[0].Alloc(64)
	// A different handle frees it: the extent routes to core 0's arena
	// span, and core 0 reuses the space.
	heaps[3].Free(a)
	if heaps[0].SizeOf(a) != 0 {
		t.Fatal("cross-handle free not visible through the owner")
	}
	b := heaps[0].Alloc(64)
	if b != a {
		t.Errorf("freed arena block not reused: got %#x, want %#x", b, a)
	}
}

func TestShardedStatsMachineWideLiveBytes(t *testing.T) {
	heaps, _ := newSharded(t)
	heaps[0].Alloc(64)
	heaps[1].Alloc(128)
	_, _, _, live := heaps[2].Stats() // a handle that allocated nothing
	if live != 64+128 {
		t.Errorf("live bytes = %d, want machine-wide 192", live)
	}
}

func TestShardedCheckTiling(t *testing.T) {
	heaps, _ := newSharded(t)
	// Mixed traffic: arena allocations, a large fallback allocation,
	// frees creating holes.
	a := heaps[0].Alloc(64)
	heaps[0].Alloc(32)
	heaps[1].Alloc(4096)
	heaps[0].Free(a)
	for _, h := range heaps {
		if err := h.Check(); err != nil {
			t.Fatalf("Check on consistent heap: %v", err)
		}
	}
	// Corrupt one span: drop a live block from the block index without
	// freeing it (the block reuses a's extent at the arena's base).
	// Check must report the unaccounted gap.
	b := heaps[0].Alloc(64)
	heaps[0].spanOf(b).ix.drop(b)
	if err := heaps[2].Check(); err == nil || !strings.Contains(err.Error(), "unaccounted gap") {
		t.Errorf("Check missed an unaccounted gap: %v", err)
	}
}

func TestRebuildShardedReconciles(t *testing.T) {
	heaps, _ := newSharded(t)
	a := heaps[0].Alloc(64)
	leak := heaps[1].Alloc(96) // becomes unreachable (crashed mid-transaction)
	c := heaps[1].Alloc(128)
	d := heaps[2].Alloc(LargeAllocBytes) // lives in the fallback span
	heaps[3].BeginTx()                   // a handle crashed inside a transaction
	heaps[3].Alloc(32)

	rep, err := Rebuild(heaps, []Extent{{a, 64}, {c, 128}, {d, LargeAllocBytes}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReachableBlocks != 3 {
		t.Errorf("reachable blocks = %d, want 3", rep.ReachableBlocks)
	}
	// The leaked block and the in-transaction allocation both return to
	// free space; every span tiles exactly afterwards.
	if rep.ReclaimedGaps == 0 || rep.ReclaimedBytes < 96 {
		t.Errorf("leak not reclaimed: %+v", rep)
	}
	for i, h := range heaps {
		if err := h.Check(); err != nil {
			t.Errorf("core %d after rebuild: %v", i, err)
		}
	}
	// Handle 3's transaction bookkeeping was reset — a new transaction
	// may begin without a nested-BeginTx panic.
	heaps[3].BeginTx()
	heaps[3].CommitTx()
	// The reclaimed gap in core 1's arena is allocatable again.
	if got := heaps[1].Alloc(96); got != leak {
		t.Errorf("reclaimed gap not reused: got %#x, want %#x", got, leak)
	}
}

// tickCounter records compute and arena charges separately.
type tickCounter struct{ compute, arena uint64 }

func (c *tickCounter) Tick(n uint64)      { c.compute += n }
func (c *tickCounter) TickArena(n uint64) { c.arena += n }

// TestAllocChargesByArena: a handle with a local arena charges its
// allocator cycles through TickArena, a handle without one charges
// plain compute — each to its own core's clock.
func TestAllocChargesByArena(t *testing.T) {
	for _, sockets := range []int{1, 2} {
		clks := make([]tickCounter, 2)
		heaps := New(mem.MultiLayoutSockets(64<<20, 2, sockets), func(i int) Ticker { return &clks[i] })
		heaps[1].Alloc(64)
		want := tickCounter{compute: AllocCycles}
		if sockets > 1 {
			want = tickCounter{arena: AllocCycles}
		}
		if clks[1] != want || clks[0] != (tickCounter{}) {
			t.Errorf("%d socket(s): core charges %+v, want core 1 %+v and core 0 nothing", sockets, clks, want)
		}
	}
}
