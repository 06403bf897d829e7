package engine

import (
	"math/rand"
	"testing"
	"unsafe"

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
