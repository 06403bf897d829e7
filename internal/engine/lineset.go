package engine

import (
	"fmt"
	"slices"

	"github.com/persistmem/slpmt/internal/freelist"
	"github.com/persistmem/slpmt/internal/mem"
)

// lineSet is a set of cache-line addresses, each carrying a small value
// (the write set's class bits and logged-word mask, an epoch's pending
// classes):
//
//   - ents is dense and in insertion order until sortByAddr puts it in
//     address order, which is the order every persist loop needs; the
//     walks range over it directly. Each entry is one packed word (see
//     lineEntry).
//   - idx is an open-addressing (linear-probe) index over ents whose
//     slots hold gen<<slotPosBits | pos+1. A slot stamped with another
//     generation reads as empty, so reset only truncates ents and bumps
//     gen: its cost does not follow the capacity a large transaction
//     left behind. The index is zeroed only when the generation wraps.
//
// Nothing is ever deleted; callers clear bits in the value instead.
// ents and idx grow together (ents' capacity is half the index's, the
// maximum load), so steady state allocates nothing. A set holds at most
// maxSetLines lines, keyed by line: any address within a line names it.
//
// A set keeps its own buffers up to firstLineIdx index slots. Past
// that it grows into a set from the process-wide lineSets, and its
// reset hands the grown set back and returns to its own (first).
type lineSet struct {
	lineBufs
	first lineBufs // the set's own buffers while a grown set is in use
}

// lineBufs is a line set's storage: the entries, their index and the
// index's slot stamp, which travels with the index.
type lineBufs struct {
	ents []lineEntry
	idx  []uint32
	gen  uint32 // current slot stamp; 0 only before the first growth
}

// firstLineIdx is the largest index a set keeps as its own: 32 lines,
// more than most transactions write.
const firstLineIdx = 64

// lineSets holds the grown line sets of every engine in the process. A
// rehash's write set, or a W=16 epoch's pending lines, reaches
// thousands of lines, and each fresh platform would regrow the set from
// minLineIdx by doubling. A set of at most firstLineIdx slots never
// enters it, so a transaction of at most 32 lines takes no lock. It
// keeps a set of up to 64 Ki slots (32 Ki lines, 512 KiB).
var lineSets = freelist.List[lineBufs]{Keep: 1 << 16}

// lineEntry is one member of a lineSet packed into one word: the line
// number (address >> mem.LineShift) in the bits above entValBits, the
// value in the low entValBits. Line numbers below 1<<(64-entValBits),
// addresses below 1<<54, pack losslessly; PM devices stop at 4 GiB
// (pmem.MaxSize). As each line is in a set once, ordering entries as
// integers orders them by address.
type lineEntry uint64

const entValBits = 16

// lineKey is the line's entry with value 0.
func lineKey(a mem.Addr) lineEntry { return lineEntry(a>>mem.LineShift) << entValBits }

// addr returns the entry's line address.
func (en lineEntry) addr() mem.Addr { return mem.Addr(en>>entValBits) << mem.LineShift }

// val returns the entry's value.
func (en lineEntry) val() uint16 { return uint16(en) }

// is reports whether the entry is line a's.
func (en lineEntry) is(a mem.Addr) bool { return en>>entValBits == lineEntry(a>>mem.LineShift) }

// withVal returns the entry with its value replaced by v.
func (en lineEntry) withVal(v uint16) lineEntry { return en&^(1<<entValBits-1) | lineEntry(v) }

const (
	slotPosBits = 20
	slotPosMask = 1<<slotPosBits - 1
	slotGenMax  = 1<<(32-slotPosBits) - 1
	minLineIdx  = 16 // smallest index: 8 entries
	// maxSetLines is the largest load of the largest index whose
	// positions (pos+1) fit in slotPosBits.
	maxSetLines = 1 << (slotPosBits - 1)
)

// home is the line's first probe slot (Fibonacci hashing of the line
// address; len(idx) is a power of two).
func (s *lineSet) home(a mem.Addr) int {
	return int(uint32((a>>6)*0x9E3779B97F4A7C15>>32)) & (len(s.idx) - 1)
}

// lookup returns the line's position in ents, or -1.
//
//slpmt:noalloc
func (s *lineSet) lookup(a mem.Addr) int {
	if len(s.idx) == 0 {
		return -1
	}
	mask := len(s.idx) - 1
	for i := s.home(a); ; i = (i + 1) & mask {
		v := s.idx[i]
		if v>>slotPosBits != s.gen {
			return -1
		}
		if p := int(v&slotPosMask) - 1; s.ents[p].is(a) {
			return p
		}
	}
}

// val returns the line's value, 0 for a line not in the set.
//
//slpmt:noalloc
func (s *lineSet) val(a mem.Addr) uint16 {
	if p := s.lookup(a); p >= 0 {
		return s.ents[p].val()
	}
	return 0
}

// find returns the line's position in ents, inserting it with value 0
// if absent: one probe whether or not the line was present, unless the
// insertion must first grow the index. The position stays valid until
// the next insertion or sort.
//
//slpmt:noalloc
func (s *lineSet) find(a mem.Addr) int {
	if 2*(len(s.ents)+1) > len(s.idx) {
		if p := s.lookup(a); p >= 0 {
			return p
		}
		s.grow()
	}
	mask := len(s.idx) - 1
	for i := s.home(a); ; i = (i + 1) & mask {
		v := s.idx[i]
		if v>>slotPosBits != s.gen {
			p := len(s.ents)
			s.ents = append(s.ents, lineKey(a)) //slpmt:noalloc-ok: capacity grows with the index in grow, so this never reallocates
			s.idx[i] = s.gen<<slotPosBits | uint32(p+1)
			return p
		}
		if p := int(v&slotPosMask) - 1; s.ents[p].is(a) {
			return p
		}
	}
}

// or sets bits in the line's value, inserting the line if absent.
//
//slpmt:noalloc
func (s *lineSet) or(a mem.Addr, bits uint16) { s.ents[s.find(a)] |= lineEntry(bits) }

// reset empties the set in O(1): the entries truncate and the index's
// generation moves on, so every slot reads as empty. A grown set goes
// back to lineSets.
//
//slpmt:noalloc
func (s *lineSet) reset() {
	if len(s.idx) > firstLineIdx {
		s.release()
	}
	s.ents = s.ents[:0]
	s.nextGen()
}

// release hands the grown set to lineSets and returns the set to its
// own buffers. The stamp goes with the index: whoever takes it next
// moves the generation on before using it.
//
//go:noinline
func (s *lineSet) release() {
	lineSets.Put(s.lineBufs, len(s.idx))
	s.lineBufs, s.first = s.first, lineBufs{}
}

// nextGen invalidates every index slot, zeroing the index only when the
// generation stamp wraps.
func (s *lineBufs) nextGen() {
	s.gen++
	if s.gen > slotGenMax {
		clear(s.idx)
		s.gen = 1
	}
}

// grow doubles the index and sizes ents' capacity to the new maximum
// load, then re-indexes every entry. Past firstLineIdx it takes the
// largest set of lineSets with a larger index instead, if there is one,
// and moves its generation on, so no slot of its last owner reads as
// occupied. The set's own buffers it replaces stay in first; a grown
// set it replaces is dropped.
func (s *lineSet) grow() {
	n := max(2*len(s.idx), minLineIdx)
	if n/2 > maxSetLines {
		panic(fmt.Sprintf("engine: line set exceeds %d lines", maxSetLines))
	}
	var b lineBufs
	if n > firstLineIdx {
		if len(s.idx) == firstLineIdx {
			s.first = s.lineBufs
		}
		var ok bool
		if b, ok = lineSets.TakeLarger(len(s.idx)); ok {
			b.nextGen()
		}
	}
	if b.idx == nil {
		b = lineBufs{ents: make([]lineEntry, 0, n/2), idx: make([]uint32, n), gen: 1}
	}
	b.ents = append(b.ents[:0], s.ents...)
	s.lineBufs = b
	s.reindex()
}

// reindex stamps every entry into the index under the current
// generation; slots of older generations count as empty.
func (s *lineSet) reindex() {
	mask := len(s.idx) - 1
	for p, en := range s.ents {
		i := s.home(en.addr())
		for s.idx[i]>>slotPosBits == s.gen {
			i = (i + 1) & mask
		}
		s.idx[i] = s.gen<<slotPosBits | uint32(p+1)
	}
}

// sortByAddr puts the entries in ascending address order — the
// deterministic persist order of the commit, close and abort walks —
// and re-indexes them so lookups stay valid during those walks.
func (s *lineSet) sortByAddr() {
	slices.Sort(s.ents)
	s.nextGen()
	s.reindex()
}
