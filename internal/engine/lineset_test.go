package engine

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/mem"
)

// Test_LineSet_Matches_Model_When_Random_Operations_Applied drives a
// lineSet and a map model through the same seeded stream of set (find
// and store), or, get (lookup and val), reset and sort operations.
// Bursts of fresh lines grow the index several times, and the resets
// and sorts wrap the generation stamp more than twice. Values span all
// 16 bits, and half the lines sit at the top of the packed entry's line
// range, so a value bit leaking into the line number (or back) shows.
// After every sort the entries must be in ascending address order and
// every model line must still be found.
func Test_LineSet_Matches_Model_When_Random_Operations_Applied(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s lineSet
	model := map[mem.Addr]uint16{}
	// Lines come from a pool larger than any one set, so lookups miss as
	// well as hit, and colliding probe chains form. The pool's upper half
	// ends at the largest line number an entry holds.
	const topLine = 1<<(64-entValBits) - 1
	addr := func() mem.Addr {
		n := mem.Addr(rng.Intn(6000))
		if n < 3000 {
			return (n + 1) * mem.LineSize
		}
		return (topLine - (n - 3000)) * mem.LineSize
	}

	check := func(op int, a mem.Addr) {
		t.Helper()
		ok, got := s.lookup(a) >= 0, s.val(a)
		want, wantOK := model[a]
		if ok != wantOK || got != want {
			t.Fatalf("op %d: line %#x: set has %d, %v; model has %d, %v", op, a, got, ok, want, wantOK)
		}
	}
	checkAll := func(op int) {
		t.Helper()
		if len(s.ents) != len(model) {
			t.Fatalf("op %d: set holds %d lines, model %d", op, len(s.ents), len(model))
		}
		for a := range model {
			check(op, a)
		}
	}

	wraps, maxIdx := 0, 0
	for op := 0; op < 80000; op++ {
		switch r := rng.Intn(100); {
		case r < 40:
			a, v := addr(), uint16(rng.Intn(1<<16))
			p := s.find(a)
			s.ents[p] = s.ents[p].withVal(v)
			model[a] = v
		case r < 55:
			a, bits := addr(), uint16(rng.Intn(1<<16))
			s.or(a, bits)
			model[a] |= bits
		case r < 75:
			check(op, addr())
		case r < 76:
			// A burst of fresh lines: the set grows past its index.
			for n := rng.Intn(3000); n > 0; n-- {
				a, v := addr(), uint16(rng.Intn(1<<16))
				p := s.find(a)
				s.ents[p] = s.ents[p].withVal(v)
				model[a] = v
			}
		case r < 90:
			before := s.gen
			s.sortByAddr()
			if before == slotGenMax && s.gen == 1 {
				wraps++
			}
			for i := 1; i < len(s.ents); i++ {
				if s.ents[i-1].addr() >= s.ents[i].addr() {
					t.Fatalf("op %d: sorted entries %d and %d out of order: %#x, %#x",
						op, i-1, i, s.ents[i-1].addr(), s.ents[i].addr())
				}
			}
			checkAll(op)
		default:
			if s.gen == slotGenMax {
				wraps++
			}
			s.reset()
			clear(model)
			checkAll(op)
		}
		maxIdx = max(maxIdx, len(s.idx))
	}
	checkAll(-1)
	if wraps < 2 {
		t.Errorf("generation wrapped %d times, want at least 2", wraps)
	}
	if maxIdx < 4096 {
		t.Errorf("index grew only to %d slots", maxIdx)
	}

	// A wrap must zero the index: lines stamped in generation 1, right
	// after the index grew, must not reappear when the stamp comes round.
	var w lineSet
	for i := 1; i <= 4; i++ {
		w.or(mem.Addr(i)*mem.LineSize, 1)
	}
	for n := 0; n < slotGenMax; n++ {
		w.reset()
	}
	for i := 1; i <= 4; i++ {
		if a := mem.Addr(i) * mem.LineSize; w.lookup(a) >= 0 {
			t.Errorf("line %#x survives %d resets", a, slotGenMax)
		}
	}
}

// TestLineEntryPacked pins a line-set entry at one word, its line
// number and value round-tripping at the edges of both fields.
func TestLineEntryPacked(t *testing.T) {
	if got := unsafe.Sizeof(lineEntry(0)); got != 8 {
		t.Errorf("lineEntry is %d bytes, want 8", got)
	}
	for _, a := range []mem.Addr{0, mem.LineSize, (1<<(64-entValBits) - 1) * mem.LineSize} {
		for _, v := range []uint16{0, 1, 0x8000, 0xFFFF} {
			en := lineKey(a).withVal(0xFFFF).withVal(v)
			if en.addr() != a || en.val() != v || !en.is(a) || !en.is(a+mem.LineSize-1) {
				t.Errorf("entry for line %#x value %#x reads line %#x value %#x", a, v, en.addr(), en.val())
			}
		}
	}
}

// drainLineSets empties the process-wide list of grown line sets, so a
// test sees the growth of a process that has grown none yet.
func drainLineSets() {
	for {
		if _, ok := lineSets.Get(); !ok {
			return
		}
	}
}

// stamped counts the index slots that read as occupied under the set's
// generation.
func stamped(s *lineSet) int {
	n := 0
	for _, v := range s.idx {
		if v>>slotPosBits == s.gen {
			n++
		}
	}
	return n
}

// TestLineSetReuseReadsEmpty: a set that grows into an index another
// set filled and handed back sees none of that set's lines. Only its
// own entries are stamped with its generation, lookups of the other
// set's lines miss, and its own lines hold their values. The second set
// holds fewer lines than the first, so a stale slot would name a
// position past its entries.
func TestLineSetReuseReadsEmpty(t *testing.T) {
	drainLineSets()
	var prev lineSet
	const prevLines, nextLines = 3000, 100
	for i := 0; i < prevLines; i++ {
		prev.or(mem.Addr(i+1)*mem.LineSize, 1)
	}
	grown := unsafe.SliceData(prev.idx)
	prev.reset()
	if len(prev.idx) != firstLineIdx {
		t.Fatalf("a reset set keeps an index of %d slots, want its own %d", len(prev.idx), firstLineIdx)
	}

	var next lineSet
	line := func(i int) mem.Addr { return mem.Addr(prevLines+1+i) * mem.LineSize }
	for i := 0; i < nextLines; i++ {
		next.or(line(i), uint16(i+1))
	}
	if unsafe.SliceData(next.idx) != grown {
		t.Fatal("the next set did not grow into the index the first one handed back")
	}
	if got := stamped(&next); got != nextLines {
		t.Fatalf("%d index slots read as occupied, want the set's %d lines", got, nextLines)
	}
	for i := 0; i < prevLines; i++ {
		if a := mem.Addr(i+1) * mem.LineSize; next.lookup(a) >= 0 || next.val(a) != 0 {
			t.Fatalf("the next set reports line %#x, which only its index's last owner held", a)
		}
	}
	for i := 0; i < nextLines; i++ {
		if got := next.val(line(i)); got != uint16(i+1) {
			t.Fatalf("line %#x reads %d, want %d", line(i), got, i+1)
		}
	}
}

// TestLineSetReuse: a rehash-sized write set reset on one engine is the
// set the next engine's rehash-sized transaction grows into, past its
// own first index, and a transaction within the first size takes no
// lock on lineSets and allocates nothing.
func TestLineSetReuse(t *testing.T) {
	drainLineSets()
	// tx runs one transaction of n eager log-free stores to distinct
	// lines. It appends the write set's index sizes to steps, if steps
	// is not nil.
	tx := func(e *Engine, n int, steps *[]int) {
		base := e.m.Layout.HeapBase
		e.Begin()
		for i := 0; i < n; i++ {
			e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i), isa.StoreT, isa.LogFree)
			if c := len(e.cur.ws.idx); steps != nil && (len(*steps) == 0 || (*steps)[len(*steps)-1] != c) {
				*steps = append(*steps, c)
			}
		}
		e.Commit()
	}
	const lines = 3000
	first, _ := newEng(slpmtCfg())
	tx(first, lines, nil)
	grown := unsafe.SliceData(first.cur.ws.idx)
	first.Reset()
	if len(first.cur.ws.idx) != firstLineIdx {
		t.Fatalf("a reset engine's write set has an index of %d slots, want its own %d", len(first.cur.ws.idx), firstLineIdx)
	}
	next, _ := newEng(slpmtCfg())
	var steps []int
	tx(next, lines, &steps)
	if want := []int{minLineIdx, 32, firstLineIdx, 8192}; !slices.Equal(steps, want) || unsafe.SliceData(next.cur.ws.idx) != grown {
		t.Errorf("the next engine's write set index sizes %v, same array %v; want %v, the first engine's array",
			steps, unsafe.SliceData(next.cur.ws.idx) == grown, want)
	}

	small := func() { tx(next, firstLineIdx/2, nil) }
	small()
	ops := lineSets.Ops()
	if allocs := testing.AllocsPerRun(20, small); allocs != 0 {
		t.Errorf("a %d-line transaction allocates %.1f times, want 0", firstLineIdx/2, allocs)
	}
	if got := lineSets.Ops() - ops; got != 0 {
		t.Errorf("a %d-line transaction took the list's lock %d times, want 0", firstLineIdx/2, got)
	}
}

// TestLineSetReuseConcurrent: goroutines whose sets grow into and hand
// back indexes of the one shared lineSets at once each see exactly the
// lines they inserted (under -race, make race checks the list's locking
// too).
func TestLineSetReuseConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s lineSet
			for round := 0; round < 40; round++ {
				n := 100 + 50*(round%8)
				base := mem.Addr(16+g*4096+round%3) * mem.LineSize
				for i := 0; i < n; i++ {
					s.or(base+mem.Addr(i)*mem.LineSize, uint16(g+1))
				}
				if len(s.ents) != n || stamped(&s) != n {
					t.Errorf("goroutine %d round %d: %d entries, %d stamped slots; want %d", g, round, len(s.ents), stamped(&s), n)
					return
				}
				for i := -8; i < n+8; i++ {
					want := uint16(0)
					if i >= 0 && i < n {
						want = uint16(g + 1)
					}
					if got := s.val(base + mem.Addr(i)*mem.LineSize); got != want {
						t.Errorf("goroutine %d round %d: line %d reads %d, want %d", g, round, i, got, want)
						return
					}
				}
				s.reset()
			}
		}()
	}
	wg.Wait()
}
