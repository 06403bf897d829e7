package txheap

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
)

// heapModel is the reference the block index is checked against: a map
// of live blocks, plus each handle's open transaction and epoch
// quarantine as plain lists.
type heapModel struct {
	live   map[mem.Addr]uint64
	inTx   []bool
	allocs [][]Extent // per handle: the open transaction's allocations
	frees  [][]Extent // per handle: the open transaction's frees
	epoch  [][]Extent // per handle: committed frees parked for the epoch
	hold   []bool
	gone   []mem.Addr // blocks freed at some point (double-free probes)
}

func newHeapModel(handles int) *heapModel {
	return &heapModel{
		live:   map[mem.Addr]uint64{},
		inTx:   make([]bool, handles),
		allocs: make([][]Extent, handles),
		frees:  make([][]Extent, handles),
		epoch:  make([][]Extent, handles),
		hold:   make([]bool, handles),
	}
}

// foreignTxAlloc reports whether addr was allocated by the open
// transaction of a handle other than h (isolation keeps h from freeing
// it).
func (m *heapModel) foreignTxAlloc(h int, addr mem.Addr) bool {
	for i, l := range m.allocs {
		if i == h {
			continue
		}
		for _, e := range l {
			if e.Addr == addr {
				return true
			}
		}
	}
	return false
}

// sorted returns the model's live blocks in address order.
func (m *heapModel) sorted() []Extent {
	out := make([]Extent, 0, len(m.live))
	for a, sz := range m.live { //slpmt:determinism-ok: sorted below
		out = append(out, Extent{a, sz})
	}
	slices.SortFunc(out, func(a, b Extent) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

// freePanics frees addr on h and returns the panic message, or "" if
// Free returned.
func freePanics(h *Heap, addr mem.Addr) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	h.Free(addr)
	return ""
}

// Test_Heap_Matches_Model_When_Random_Operations_Applied drives a
// machine's heap handles and a map model through the same seeded
// stream of allocations, frees, transaction begins, commits and aborts,
// epoch quarantines and releases (also inside an open transaction, the
// order of every window-closing commit), blocks one transaction both
// allocates and frees (committed under the quarantine, and aborted),
// Resets, and Rebuilds from the model's live set, on one socket (one
// shared span) and on two (per-core arenas plus the global span). Sizes
// run from one word past LargeAllocBytes, and bursts pass
// BurstSpillBytes, so every span is used. After every step each live
// block's SizeOf, Live, the Stats live bytes and Check must agree with
// the model; quarantined blocks must read as not live and must not be
// handed out again. Freeing an unknown, interior or already freed
// address must panic with the unallocated-address message and change
// nothing.
func Test_Heap_Matches_Model_When_Random_Operations_Applied(t *testing.T) {
	for _, sockets := range []int{1, 2} {
		t.Run(fmt.Sprintf("sockets=%d", sockets), func(t *testing.T) {
			const handles = 2
			heaps := New(mem.MultiLayoutSockets(16<<20, handles, sockets), nil)
			m := newHeapModel(handles)
			rng := rand.New(rand.NewSource(int64(sockets)))

			checkAll := func(op int, what string) {
				t.Helper()
				want := m.sorted()
				var bytes uint64
				for _, e := range want {
					if got := heaps[op%handles].SizeOf(e.Addr); got != e.Size {
						t.Fatalf("op %d (%s): SizeOf(%#x) = %d, model %d", op, what, e.Addr, got, e.Size)
					}
					bytes += e.Size
				}
				if got := heaps[0].Live(); !slices.Equal(got, want) {
					t.Fatalf("op %d (%s): Live has %d blocks, model %d\n got %v\nwant %v", op, what, len(got), len(want), got, want)
				}
				if _, _, _, live := heaps[1].Stats(); live != bytes {
					t.Fatalf("op %d (%s): live bytes %d, model %d", op, what, live, bytes)
				}
				for h := range m.frees {
					for _, e := range append(m.frees[h], m.epoch[h]...) {
						if got := heaps[0].SizeOf(e.Addr); got != 0 {
							t.Fatalf("op %d (%s): quarantined block %#x has SizeOf %d", op, what, e.Addr, got)
						}
					}
				}
				if err := heaps[op%handles].Check(); err != nil {
					t.Fatalf("op %d (%s): Check: %v", op, what, err)
				}
			}
			// claimed reports whether [a, a+size) overlaps a live or
			// quarantined model block.
			claimed := func(a mem.Addr, size uint64) bool {
				for b, sz := range m.live { //slpmt:determinism-ok: any overlap fails
					if a < b+mem.Addr(sz) && b < a+mem.Addr(size) {
						return true
					}
				}
				for h := range m.frees {
					for _, e := range append(m.frees[h], m.epoch[h]...) {
						if a < e.End() && e.Addr < a+mem.Addr(size) {
							return true
						}
					}
				}
				return false
			}
			pickLive := func(h int) (mem.Addr, bool) {
				var cand []mem.Addr
				for _, e := range m.sorted() {
					if !m.foreignTxAlloc(h, e.Addr) {
						cand = append(cand, e.Addr)
					}
				}
				if len(cand) == 0 {
					return 0, false
				}
				return cand[rng.Intn(len(cand))], true
			}

			alloc := func(h int, size uint64) mem.Addr {
				a := heaps[h].Alloc(size)
				size = uint64(mem.AlignUp(mem.Addr(max(size, 1)), mem.WordSize))
				if !mem.AlignedTo(a, mem.WordSize) || claimed(a, size) {
					t.Fatalf("Alloc(%d) on handle %d = %#x overlaps a live or quarantined block", size, h, a)
				}
				m.live[a] = size
				if m.inTx[h] {
					m.allocs[h] = append(m.allocs[h], Extent{a, size})
				}
				return a
			}
			free := func(h int, a mem.Addr) {
				heaps[h].Free(a)
				if m.inTx[h] {
					m.frees[h] = append(m.frees[h], Extent{a, m.live[a]})
				}
				delete(m.live, a)
				m.gone = append(m.gone, a)
			}
			begin := func(h int) {
				heaps[h].BeginTx()
				m.inTx[h] = true
			}
			commit := func(h int) {
				heaps[h].CommitTx()
				if m.hold[h] {
					m.epoch[h] = append(m.epoch[h], m.frees[h]...)
				}
				m.inTx[h], m.allocs[h], m.frees[h] = false, nil, nil
			}
			abort := func(h int) {
				heaps[h].AbortTx()
				for _, e := range m.frees[h] {
					m.live[e.Addr] = e.Size
				}
				for _, e := range m.allocs[h] {
					delete(m.live, e.Addr)
				}
				m.inTx[h], m.allocs[h], m.frees[h] = false, nil, nil
			}

			for op := 0; op < 6000; op++ {
				h := rng.Intn(handles)
				var what string
				switch r := rng.Intn(106); {
				case r < 30 || len(m.live) < 4:
					what = "alloc"
					size := uint64(rng.Intn(200) + 1)
					if rng.Intn(20) == 0 {
						size = uint64(LargeAllocBytes + rng.Intn(2048))
					}
					alloc(h, size)
				case r < 33:
					what = "burst"
					for n := rng.Intn(40); n > 0; n-- {
						alloc(h, uint64(rng.Intn(512)+1))
					}
				case r < 58 || len(m.live) > 300:
					what = "free"
					a, ok := pickLive(h)
					if !ok {
						continue
					}
					free(h, a)
				case r < 66:
					what = "bad free"
					var a mem.Addr
					switch rng.Intn(3) {
					case 0: // unknown: past every block
						a = heaps[h].Arenas()[0].End() - mem.WordSize
					case 1: // interior
						for _, e := range m.sorted() {
							if e.Size > mem.WordSize {
								a = e.Addr + mem.Addr(mem.WordSize*(1+rng.Intn(int(e.Size/mem.WordSize)-1)))
								break
							}
						}
					default: // freed before, and not reallocated since
						for i := len(m.gone) - 1; i >= 0; i-- {
							if _, ok := m.live[m.gone[i]]; !ok {
								a = m.gone[i]
								break
							}
						}
					}
					if _, ok := m.live[a]; a == 0 || ok {
						continue
					}
					if msg := freePanics(heaps[h], a); !strings.Contains(msg, "txheap: free of unallocated address") {
						t.Fatalf("op %d: Free(%#x) of a non-block address: panic %q", op, a, msg)
					}
				case r < 74:
					if m.inTx[h] {
						continue
					}
					what = "begin"
					begin(h)
				case r < 82:
					if !m.inTx[h] {
						continue
					}
					what = "commit"
					commit(h)
				case r < 88:
					if !m.inTx[h] {
						continue
					}
					what = "abort"
					abort(h)
				case r < 92:
					what = "epoch hold"
					m.hold[h] = !m.hold[h]
					heaps[h].EpochQuarantine(m.hold[h])
				case r < 96:
					what = "epoch release"
					heaps[h].ReleaseEpochFrees()
					m.epoch[h] = nil
				case r < 98:
					what = "rebuild"
					if _, err := Rebuild(heaps, m.sorted()); err != nil {
						t.Fatalf("op %d: Rebuild from the model's live set: %v", op, err)
					}
					for i := range m.inTx {
						m.inTx[i], m.allocs[i], m.frees[i], m.epoch[i] = false, nil, nil, nil
					}
				case r < 100:
					what = "reset"
					Reset(heaps)
					m = newHeapModel(handles)
				case r < 103:
					// The order of every window-closing commit: the
					// engine closes the epoch inside its Commit, while
					// the heap transaction is still open.
					what = "epoch release inside a transaction"
					if !m.inTx[h] {
						begin(h)
					}
					alloc(h, uint64(rng.Intn(200)+1))
					if a, ok := pickLive(h); ok {
						free(h, a)
					}
					heaps[h].ReleaseEpochFrees()
					m.epoch[h] = nil
				default:
					what = "block allocated and freed by one transaction"
					for _, aborted := range []bool{false, true} {
						if !m.inTx[h] {
							begin(h)
						}
						free(h, alloc(h, uint64(rng.Intn(200)+1)))
						if aborted {
							abort(h)
						} else {
							m.hold[h] = true
							heaps[h].EpochQuarantine(true)
							commit(h)
						}
						checkAll(op, what)
					}
				}
				checkAll(op, what)
			}
		})
	}
}
