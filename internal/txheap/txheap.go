// Package txheap is the persistent-heap allocator the workloads allocate
// their durable objects from.
//
// Following the paper's programming model (§IV-B, Pattern 1), allocator
// METADATA is volatile: like the STAMP ports' malloc, the free lists and
// bump pointer live outside persistent memory and are rebuilt after a
// crash by a reachability scan from the application's roots. A crash in
// the middle of a transaction can therefore leak objects that were
// allocated but never linked into the structure — exactly the leak the
// paper's recovery reclaims "using a garbage collector or a persistent
// inspector from PMDK". The recovery package implements that collector
// (mark from roots, rebuild the heap).
//
// Two rules keep selective logging sound:
//
//   - Objects freed inside a transaction are quarantined until the
//     transaction commits; the allocator never hands memory freed by the
//     current transaction back to it. (Reuse within the freeing
//     transaction would let log-free scribbles reach PM over data that
//     an undo-recovery could resurrect.)
//   - On abort, the transaction's allocations are returned to the free
//     list and its frees are cancelled.
//
// The allocator is first-fit over a sorted, coalescing free-extent list,
// with a bump pointer for virgin space. Blocks are recorded in a block
// index of two bits per heap word (a block starts here; a live block
// starts here) kept in demand-zero memory, and a block's size is not
// stored: blocks, quarantined frees and free extents tile each span
// below its bump pointer, so a block ends where the next block or free
// extent starts, or at the bump pointer. Each span's free-extent list
// is carved from the same mapping at the most extents the span can
// hold (freeCap), so it never grows.
//
// Each handle keeps one extent log of packed 8-byte entries: the frees
// of committed transactions still parked under the epoch quarantine,
// then, past a boundary, the running transaction's allocations and
// frees. Commit drops the transaction's allocations and releases or
// parks its frees; abort reinstates its frees and releases its
// allocations; an epoch close releases the parked prefix.
//
// Space management is factored into spans — contiguous regions each
// with their own free list and bump pointer. New gives every core its
// own Heap handle, and all handles share one global span. On a
// single-socket machine no arenas are carved and the global span is the
// whole heap region. On a multi-socket topology core i's handle first
// allocates from its local arena span, a socket-local stripe of the
// heap (mem.Layout.ArenaBase), and falls back to the global span past
// the last arena: allocation metadata stops being a cross-core
// serialization point and fresh objects land on the allocating core's
// home socket. Frees and rebuilds route by address to the owning span,
// whichever handle performs them.
package txheap

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"unsafe"

	"github.com/persistmem/slpmt/internal/freelist"
	"github.com/persistmem/slpmt/internal/mem"
)

// Extent is a [Addr, Addr+Size) byte range in the heap.
type Extent struct {
	Addr mem.Addr
	Size uint64
}

// End returns the first address past the extent.
func (e Extent) End() mem.Addr { return e.Addr + e.Size }

// Ticker is the clock surface the heap charges allocation costs to
// (satisfied by *machine.Machine and *machine.Core).
type Ticker interface {
	Tick(cycles uint64)
}

// arenaTicker is the optional charging surface of arena handles: when
// the Ticker also implements it, arena-allocator cycles are charged
// through TickArena (profile.CauseAllocArena) instead of plain compute.
type arenaTicker interface {
	TickArena(cycles uint64)
}

// AllocCycles is the modelled CPU cost of one allocator operation.
const AllocCycles = 40

// LargeAllocBytes is the arena-handle threshold above which an
// allocation goes to the shared global fallback span instead of the
// local arena. The fallback region is line-interleaved across sockets
// (mem.Layout.SocketOf), so a large shared object — a bucket array, a
// setup-built spine — spreads its persist traffic over every device
// rather than camping on the allocating core's socket. Handles without
// an arena ignore the threshold.
const LargeAllocBytes = 2048

// BurstSpillBytes is the arena-handle per-transaction allocation budget
// a local arena serves before the transaction's remaining allocations
// spill to the interleaved fallback span. A transaction allocating far
// more than a typical operation (a rehash copying every node, a bulk
// load) is reorganizing shared state, and packing that burst into one
// socket's arena would serialize the whole structure's future persist
// traffic behind one write queue — the interleave-on-bulk policy of
// NUMA allocators. Ordinary transactions never reach the budget and
// stay arena-local.
const BurstSpillBytes = 8 << 10

// blockIndex is a machine heap's block index: two bits per heap word.
// The start bit says a block starts at the word, whether the block is
// live or quarantined (freed by a transaction whose frees are not yet
// released); the live bit says a live block starts there. The bits of
// words 64k..64k+63 are the pair bits[2k] (start) and bits[2k+1]
// (live). The index lives in demand-zero memory, so a fresh heap pays
// only for the pages its blocks touch, and every set bit lies below
// its span's bump pointer, so Reset and Rebuild clear only that much.
// The same mapping holds, past the bits, the spans' free-extent lists
// (carve), which touch pages only as they fill; one mapping per heap
// keeps building a platform at one mmap for the heap.
type blockIndex struct {
	base    mem.Addr // heap base: the address of word 0
	bits    []uint64
	mapping []uint64 // bits, then the spans' free-extent lists
	spare   []uint64 // the part of mapping no span has carved yet
}

// newBlockIndex maps the index of the heap [base, base+size) and room
// for the free-extent lists of spans spans that split it (freeCap).
func newBlockIndex(base mem.Addr, size uint64, spans int) *blockIndex {
	words := int(2 * ((size>>mem.WordShift + 63) / 64))
	// The spans' sizes add up to at most size, so their freeCaps add up
	// to at most size/16 + spans.
	m := mem.MapZeroed[uint64](words + extentWords*(int(size/16)+spans))
	ix := &blockIndex{base: base, bits: m[:words:words], mapping: m, spare: m[words:]}
	runtime.SetFinalizer(ix, (*blockIndex).release)
	return ix
}

func (ix *blockIndex) release() {
	mem.Unmap(ix.mapping)
	ix.bits, ix.mapping, ix.spare = nil, nil, nil
}

// extentWords is an Extent's size in mapping words.
const extentWords = int(unsafe.Sizeof(Extent{}) / 8)

// carve returns an empty free-extent list of capacity n from the
// mapping's uncarved part.
func (ix *blockIndex) carve(n int) []Extent {
	w := ix.spare[:n*extentWords]
	ix.spare = ix.spare[n*extentWords:]
	return unsafe.Slice((*Extent)(unsafe.Pointer(unsafe.SliceData(w))), n)[:0]
}

// at returns the index of the start-bit word holding a's bits and a's
// bit in it (the live-bit word follows at index k+1).
func (ix *blockIndex) at(a mem.Addr) (k int, bit uint64) {
	w := uint64(a-ix.base) >> mem.WordShift
	return int(w>>6) * 2, 1 << (w & 63)
}

// isStart reports whether a block, live or quarantined, starts at a.
func (ix *blockIndex) isStart(a mem.Addr) bool {
	k, bit := ix.at(a)
	return ix.bits[k]&bit != 0
}

// isLive reports whether a live block starts at a; a must be word
// aligned, or no block starts there.
func (ix *blockIndex) isLive(a mem.Addr) bool {
	if !mem.AlignedTo(a, mem.WordSize) {
		return false
	}
	k, bit := ix.at(a)
	return ix.bits[k+1]&bit != 0
}

// setLive marks a live block starting at a.
func (ix *blockIndex) setLive(a mem.Addr) {
	k, bit := ix.at(a)
	ix.bits[k] |= bit
	ix.bits[k+1] |= bit
}

// quarantine turns the live block at a into a quarantined one.
func (ix *blockIndex) quarantine(a mem.Addr) {
	k, bit := ix.at(a)
	ix.bits[k+1] &^= bit
}

// drop removes the block starting at a, live or quarantined.
func (ix *blockIndex) drop(a mem.Addr) {
	k, bit := ix.at(a)
	ix.bits[k] &^= bit
	ix.bits[k+1] &^= bit
}

// nextStart returns the first block start in [a, limit), or limit.
func (ix *blockIndex) nextStart(a, limit mem.Addr) mem.Addr {
	if a >= limit {
		return limit
	}
	w := uint64(a-ix.base) >> mem.WordShift
	end := uint64(limit-ix.base) >> mem.WordShift
	k := w >> 6
	word := ix.bits[2*k] >> (w & 63) << (w & 63)
	for word == 0 {
		k++
		if k<<6 >= end {
			return limit
		}
		word = ix.bits[2*k]
	}
	if f := k<<6 + uint64(bits.TrailingZeros64(word)); f < end {
		return ix.base + mem.Addr(f<<mem.WordShift)
	}
	return limit
}

// clear drops every block starting in [lo, hi).
func (ix *blockIndex) clear(lo, hi mem.Addr) {
	if lo >= hi {
		return
	}
	w0 := uint64(lo-ix.base) >> mem.WordShift
	w1 := uint64(hi-ix.base-1)>>mem.WordShift + 1
	for k := w0 >> 6; k<<6 < w1; k++ {
		mask := ^uint64(0)
		if k == w0>>6 {
			mask &= ^uint64(0) << (w0 & 63)
		}
		if (k+1)<<6 > w1 {
			mask &= ^uint64(0) >> (64 - w1&63)
		}
		ix.bits[2*k] &^= mask
		ix.bits[2*k+1] &^= mask
	}
}

// span is one contiguous space-managed region: a sorted coalescing
// free-extent list plus a bump pointer for virgin space, over the
// machine's block index. Every handle of a machine shares its spans;
// the interleaved scheduler runs one core at a time, so no locking is
// needed (mutex-free by design).
type span struct {
	base      mem.Addr
	limit     mem.Addr
	bump      mem.Addr
	free      []Extent // sorted by Addr, non-adjacent; capacity freeCap, carved from ix
	ix        *blockIndex
	liveBytes uint64
}

// freeCap is the most free extents a span of size bytes can hold.
// Extents are whole words and never adjacent, and a block of at least a
// word separates any two, so n extents cover at least 16n-8 bytes.
func freeCap(size uint64) int { return int(size/16 + 1) }

func newSpan(ix *blockIndex, base mem.Addr, size uint64) span {
	return span{
		base:  base,
		limit: base + mem.Addr(size),
		bump:  base,
		free:  ix.carve(freeCap(size)),
		ix:    ix,
	}
}

// contains reports whether addr lies inside the span's region.
func (s *span) contains(addr mem.Addr) bool { return addr >= s.base && addr < s.limit }

// blockEnd returns the end of the block starting at addr: the next
// block start, the next free extent or the bump pointer, whichever
// comes first.
func (s *span) blockEnd(addr mem.Addr) mem.Addr {
	limit := s.bump
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].Addr > addr })
	if i < len(s.free) {
		limit = min(limit, s.free[i].Addr)
	}
	return s.ix.nextStart(addr+mem.WordSize, limit)
}

// alloc takes size bytes from the span: first-fit over the free list,
// then the bump pointer. Returns false when the span is exhausted.
func (s *span) alloc(size uint64) (mem.Addr, bool) {
	addr, ok := s.allocFromFree(size)
	if !ok {
		if s.bump+mem.Addr(size) > s.limit {
			return 0, false
		}
		addr = s.bump
		s.bump += mem.Addr(size)
	}
	s.ix.setLive(addr)
	s.liveBytes += size
	return addr, true
}

// allocFromFree takes a first-fit extent from the free list, splitting.
//
//slpmt:noalloc
func (s *span) allocFromFree(size uint64) (mem.Addr, bool) {
	for i := range s.free {
		if s.free[i].Size >= size {
			addr := s.free[i].Addr
			if s.free[i].Size == size {
				s.free = s.free[:i+copy(s.free[i:], s.free[i+1:])]
			} else {
				s.free[i].Addr += mem.Addr(size)
				s.free[i].Size -= size
			}
			return addr, true
		}
	}
	return 0, false
}

// release returns a block, live or quarantined, to the free list.
//
//slpmt:noalloc
func (s *span) release(e Extent) {
	s.ix.drop(e.Addr)
	s.insertFree(e)
}

// insertFree adds an extent to the sorted free list, coalescing with
// neighbours. Only an extent that touches neither neighbour takes a new
// entry, and the list never grows past its capacity (freeCap): a span
// whose free extents would is corrupt, and insertFree panics.
//
//slpmt:noalloc
func (s *span) insertFree(e Extent) {
	i, _ := slices.BinarySearchFunc(s.free, e.Addr, extentAddrCmp)
	prev := i > 0 && s.free[i-1].End() == e.Addr
	next := i < len(s.free) && e.End() == s.free[i].Addr
	switch {
	case prev && next:
		s.free[i-1].Size += e.Size + s.free[i].Size
		s.free = s.free[:i+copy(s.free[i:], s.free[i+1:])]
	case prev:
		s.free[i-1].Size += e.Size
	case next:
		s.free[i] = Extent{e.Addr, e.Size + s.free[i].Size}
	default:
		n := len(s.free)
		if n == cap(s.free) {
			s.freeListFull(e)
		}
		s.free = s.free[:n+1]
		copy(s.free[i+1:], s.free[i:n])
		s.free[i] = e
	}
}

// extentAddrCmp orders an extent against an address by its start.
func extentAddrCmp(x Extent, a mem.Addr) int { return cmp.Compare(x.Addr, a) }

// freeListFull panics for insertFree: the span's free list is at its
// bound.
func (s *span) freeListFull(e Extent) {
	panic(fmt.Sprintf("txheap: free-extent list full: span [%#x,%#x) holds %d extents, inserting [%#x,%#x)",
		s.base, s.limit, len(s.free), e.Addr, e.End()))
}

// rebuild reconstructs the span from its (sorted) reachable extents:
// reachable blocks become the live set, every gap between them becomes
// free space, and the bump pointer retreats to the last reachable byte
// — trailing allocations a crashed transaction leaked return to virgin
// space (counted as reclaimed when rebuilding a live handle). A block
// covers its extent rounded up to whole words, as Alloc rounded it.
func (s *span) rebuild(sorted []Extent, rep *RebuildReport) error {
	s.ix.clear(s.base, s.bump)
	s.free = s.free[:0]
	s.liveBytes = 0
	cursor := s.base
	for _, e := range sorted {
		if e.Addr < cursor {
			// Keep the blocks marked so far below the bump pointer,
			// where the next Reset clears them.
			s.bump = max(s.bump, cursor)
			return fmt.Errorf("txheap: overlapping reachable extents at %#x", e.Addr)
		}
		if gap := uint64(e.Addr - cursor); gap > 0 {
			s.insertFree(Extent{cursor, gap})
			rep.ReclaimedGaps++
			rep.ReclaimedBytes += gap
		}
		if e.Size > uint64(s.limit-e.Addr) {
			// A garbage size: the bump pointer must stay in the
			// span, where the block index can clear it.
			s.bump = max(s.bump, cursor)
			return fmt.Errorf("txheap: reachable extent %#x+%d crosses its span's end %#x", e.Addr, e.Size, s.limit)
		}
		end := mem.AlignUp(e.End(), mem.WordSize)
		s.ix.setLive(e.Addr)
		s.liveBytes += uint64(end - e.Addr)
		rep.ReachableBlocks++
		rep.ReachableBytes += e.Size
		cursor = end
	}
	if cursor < s.bump {
		rep.ReclaimedGaps++
		rep.ReclaimedBytes += uint64(s.bump - cursor)
	}
	s.bump = cursor
	return nil
}

// reset returns the span to virgin space with nothing allocated,
// keeping its buffers.
func (s *span) reset() {
	s.ix.clear(s.base, s.bump)
	s.bump = s.base
	s.free = s.free[:0]
	s.liveBytes = 0
}

// Heap is one core's allocation handle: transaction bookkeeping plus
// the spans it allocates from — its local arena, if the layout carves
// one, then the global span shared by every handle of the machine.
// Not safe for concurrent use.
type Heap struct {
	clk    Ticker
	atick  arenaTicker // non-nil on arena handles whose clock supports arena charging
	arena  *span       // the core's local arena (nil when no arenas are carved)
	global *span       // the shared global span, preferred for large allocations
	all    []span      // every span of the machine, arenas first (free/rebuild routing)

	inTx        bool
	log         []uint64 // extent log (see logEntry): parked epoch frees, then the running transaction's entries
	first       []uint64 // the handle's first log, of minLogCap entries, kept while log is a grown one
	txStart     int      // log[txStart:] is the running transaction's; len(log) outside one
	txBytes     uint64   // bytes allocated by the current transaction (burst detection)
	epochHold   bool     // extend the free quarantine to the epoch close
	totalAllocs uint64
	totalFrees  uint64
	totalBytes  uint64
}

// New creates the heap handles of a machine, one per core layout. All
// handles share one global span: the whole heap when the layouts carve
// no arenas (a single-socket machine), otherwise the stripes past the
// last core's arena. With arenas, core i's handle allocates from its
// local arena (layouts[i].ArenaBase, a stripe on the core's home
// socket) first. Frees and rebuilds route by address to the owning
// span regardless of which handle performs them. clk (may be nil)
// returns the clock core i's allocator cycles are charged to: an arena
// handle charges through TickArena when the clock supports it
// (profile.CauseAllocArena), any other handle charges plain compute.
func New(layouts []mem.Layout, clk func(core int) Ticker) []*Heap {
	if len(layouts) == 0 {
		panic("txheap: New with no layouts")
	}
	cores := len(layouts)
	l0 := layouts[0]
	heapEnd := l0.HeapBase + mem.Addr(l0.HeapSize)
	if heapEnd > 1<<32 {
		panic("txheap: heap past 4 GiB") // log entries pack addresses into 32 bits
	}
	arenas := l0.ArenaSize != 0
	spans := 1
	if arenas {
		spans = cores + 1
	}
	ix := newBlockIndex(l0.HeapBase, l0.HeapSize, spans)
	var all []span
	if arenas {
		all = make([]span, 0, cores+1)
		for _, l := range layouts {
			all = append(all, newSpan(ix, l.ArenaBase, l.ArenaSize))
		}
		// Global fallback: everything past the last arena.
		fbBase := layouts[cores-1].ArenaBase + mem.Addr(layouts[cores-1].ArenaSize)
		if fbBase >= heapEnd {
			panic("txheap: no room for the global fallback span")
		}
		all = append(all, newSpan(ix, fbBase, uint64(heapEnd-fbBase)))
	} else {
		all = []span{newSpan(ix, l0.HeapBase, l0.HeapSize)}
	}
	global := &all[len(all)-1]
	heaps := make([]*Heap, cores)
	for i := range heaps {
		h := &Heap{global: global, all: all}
		if arenas {
			h.arena = &all[i]
		}
		if clk != nil {
			h.clk = clk(i)
			if at, ok := h.clk.(arenaTicker); ok && h.arena != nil {
				h.atick = at
			}
		}
		heaps[i] = h
	}
	return heaps
}

func (h *Heap) tick() {
	if h.atick != nil {
		h.atick.TickArena(AllocCycles)
		return
	}
	if h.clk != nil {
		h.clk.Tick(AllocCycles)
	}
}

// spanOf returns the span containing addr, or nil. The span count is
// cores+1 at most, so a linear scan is fine.
func (h *Heap) spanOf(addr mem.Addr) *span {
	for i := range h.all {
		if h.all[i].contains(addr) {
			return &h.all[i]
		}
	}
	return nil
}

// A log entry packs one extent of a handle's extent log into a word:
// the address in the high 32 bits, the size (a word multiple) in the
// low 32, and bit 0 (logFree) set for a free. New keeps the heap below
// 4 GiB (pmem.MaxSize), so both halves fit 32 bits.
const logFree = 1

func logEntry(addr mem.Addr, size uint64) uint64 { return addr<<32 | size }

func logExtent(v uint64) Extent { return Extent{v >> 32, v & (1<<32 - 2)} }

// minLogCap is the extent log's first capacity, in entries.
const minLogCap = 16

// extentLogs holds the grown extent logs of every heap handle in the
// process. A rehash logs thousands of allocations and the next
// transaction as many frees, and each fresh platform's handle would
// regrow its log from minLogCap by doubling. A handle keeps its first
// log itself (Heap.first), so a transaction of at most minLogCap
// entries takes no lock. It keeps a log of up to 32 Ki entries (256
// KiB): the rehash pair of a 4,000-insert hashtable logs about 6,000.
var extentLogs = freelist.List[[]uint64]{Keep: 1 << 15, First: minLogCap}

// logAppend adds an entry to the extent log. A full log moves into a
// larger one (freelist.Grow): the handle's first log when it has none,
// then the largest grown log of extentLogs or one of twice the
// capacity. append would grow a log of thousands of entries only 1.25x
// at a time.
func (h *Heap) logAppend(v uint64) {
	if len(h.log) == cap(h.log) {
		h.log = freelist.Grow(&extentLogs, h.log)
		if h.first == nil {
			h.first = h.log
		}
	}
	h.log = append(h.log, v)
}

// shrinkLog hands an empty grown extent log back to extentLogs and
// returns the handle to its first log, so the next large transaction
// on any platform grows into the grown one in one copy. Under the
// epoch quarantine, parked frees keep the log in place until the
// close releases them.
func (h *Heap) shrinkLog() {
	if len(h.log) == 0 && cap(h.log) > minLogCap {
		freelist.PutSlice(&extentLogs, h.log)
		h.log = h.first[:0]
	}
}

// BeginTx marks the start of a transaction (called by the ptx facade).
func (h *Heap) BeginTx() {
	if h.inTx {
		panic("txheap: nested BeginTx")
	}
	h.inTx = true
	h.txStart = len(h.log)
	h.txBytes = 0
}

// endTx closes the running transaction, whose entries are gone from
// the log or became parked frees. A grown log left empty is handed
// back (shrinkLog).
func (h *Heap) endTx() {
	h.inTx = false
	h.shrinkLog()
	h.txStart = len(h.log)
	h.txBytes = 0
}

// CommitTx releases quarantined frees to the free list — or, under
// the epoch quarantine, parks them until the epoch's commit point by
// compacting them in place over the transaction's allocations.
func (h *Heap) CommitTx() {
	if !h.inTx {
		panic("txheap: CommitTx outside transaction")
	}
	n := h.txStart
	for _, v := range h.log[h.txStart:] {
		if v&logFree == 0 {
			continue // a committed allocation needs no bookkeeping
		}
		if h.epochHold {
			h.log[n] = v
			n++
		} else {
			h.release(logExtent(v))
		}
	}
	h.log = h.log[:n]
	h.endTx()
}

// EpochQuarantine extends the commit-time free quarantine to the
// group-commit epoch close. Under a commit window a transaction's
// commit is volatile until its epoch closes; releasing its frees at
// commit would let a later transaction of the same window reuse the
// memory and scribble it with log-free stores — stores no undo record
// can revert, over blocks the durable (pre-epoch) state still reaches.
// Parked frees return to the free list via ReleaseEpochFrees.
func (h *Heap) EpochQuarantine(on bool) { h.epochHold = on }

// ReleaseEpochFrees returns every epoch-parked extent to the free
// list. Called when an epoch's commit point is durable (its frees can
// no longer be rolled back). An engine closes the epoch inside its
// Commit, before the heap commits, so a running transaction's entries
// stay in the log, slid down to its start; its frees wait for the next
// close.
func (h *Heap) ReleaseEpochFrees() {
	for _, v := range h.log[:h.txStart] {
		h.release(logExtent(v))
	}
	h.log = h.log[:copy(h.log, h.log[h.txStart:])]
	h.shrinkLog()
	h.txStart = 0
}

// AbortTx rolls the allocator back: the transaction's frees are
// reinstated as live and its allocations return to the free list (in
// that order, so a block it both allocated and freed ends up free).
func (h *Heap) AbortTx() {
	if !h.inTx {
		panic("txheap: AbortTx outside transaction")
	}
	tx := h.log[h.txStart:]
	for _, v := range tx {
		if v&logFree != 0 {
			e := logExtent(v)
			s := h.spanOf(e.Addr)
			s.ix.setLive(e.Addr)
			s.liveBytes += e.Size
		}
	}
	for _, v := range tx {
		if v&logFree == 0 {
			e := logExtent(v)
			s := h.spanOf(e.Addr)
			s.liveBytes -= e.Size
			s.release(e)
		}
	}
	h.log = h.log[:h.txStart]
	h.endTx()
}

// Alloc returns the address of a fresh block of at least size bytes
// (rounded up to a word multiple). An arena handle takes it from its
// local arena first and then from the global span; allocations of
// LargeAllocBytes or more, and those past a transaction's
// BurstSpillBytes, go to the global span first, whose lines interleave
// across sockets. Panics when every span is exhausted — the simulated
// workloads size the heap generously.
func (h *Heap) Alloc(size uint64) mem.Addr {
	if size == 0 {
		size = mem.WordSize
	}
	size = uint64(mem.AlignUp(mem.Addr(size), mem.WordSize))
	h.tick()

	var addr mem.Addr
	ok := false
	if h.arena != nil && size < LargeAllocBytes && h.txBytes < BurstSpillBytes {
		addr, ok = h.arena.alloc(size)
	}
	if !ok {
		addr, ok = h.global.alloc(size)
	}
	if !ok && h.arena != nil {
		addr, ok = h.arena.alloc(size)
	}
	if !ok {
		g := h.global
		panic(fmt.Sprintf("txheap: out of memory (want %d bytes, bump %#x, limit %#x)", size, g.bump, g.limit))
	}
	h.totalAllocs++
	h.totalBytes += size
	if h.inTx {
		h.logAppend(logEntry(addr, size))
		h.txBytes += size
	}
	return addr
}

// Free releases the block at addr, routing to the span that owns the
// address. Inside a transaction the memory is quarantined until commit.
// Freeing an address where no live block starts panics (catching
// workload bugs early).
func (h *Heap) Free(addr mem.Addr) {
	s := h.spanOf(addr)
	if s == nil || !s.ix.isLive(addr) {
		panic(fmt.Sprintf("txheap: free of unallocated address %#x", addr))
	}
	h.tick()
	e := Extent{addr, uint64(s.blockEnd(addr) - addr)}
	s.liveBytes -= e.Size
	h.totalFrees++
	if h.inTx {
		s.ix.quarantine(addr)
		h.logAppend(logEntry(e.Addr, e.Size) | logFree)
	} else {
		s.release(e)
	}
}

// SizeOf returns the allocation size of a live block, or 0 if addr is
// not a live block start.
func (h *Heap) SizeOf(addr mem.Addr) uint64 {
	if s := h.spanOf(addr); s != nil && s.ix.isLive(addr) {
		return uint64(s.blockEnd(addr) - addr)
	}
	return 0
}

// release returns a quarantined block to its owning span's free
// list.
func (h *Heap) release(e Extent) { h.spanOf(e.Addr).release(e) }

// Live returns the machine-wide live extents, sorted by address (all
// spans, whichever handle is asked): a scan of each span's block starts
// in address order, the spans themselves being laid out in that order.
func (h *Heap) Live() []Extent {
	var out []Extent
	for i := range h.all {
		s := &h.all[i]
		for a := s.ix.nextStart(s.base, s.bump); a < s.bump; a = s.ix.nextStart(a+mem.WordSize, s.bump) {
			if s.ix.isLive(a) {
				out = append(out, Extent{a, uint64(s.blockEnd(a) - a)})
			}
		}
	}
	return out
}

// Stats returns (allocs, frees, bytes allocated, live bytes). The
// operation totals are this handle's own; live bytes are machine-wide.
func (h *Heap) Stats() (allocs, frees, bytes, live uint64) {
	for i := range h.all {
		live += h.all[i].liveBytes
	}
	return h.totalAllocs, h.totalFrees, h.totalBytes, live
}

// Arenas returns the handle's span boundaries in allocation-preference
// order — the local arena first if one is carved, the global span last.
func (h *Heap) Arenas() []Extent {
	out := make([]Extent, 0, 2)
	for _, s := range [2]*span{h.arena, h.global} {
		if s != nil {
			out = append(out, Extent{s.base, uint64(s.limit - s.base)})
		}
	}
	return out
}

// RebuildReport describes a post-crash heap reconstruction.
type RebuildReport struct {
	// ReachableBlocks/Bytes is what the mark phase found live.
	ReachableBlocks int
	ReachableBytes  uint64
	// ReclaimedGaps/Bytes is allocated-looking space between reachable
	// blocks that returned to the free list (leaked allocations of the
	// interrupted transaction among it).
	ReclaimedGaps  int
	ReclaimedBytes uint64
}

// Rebuild reconstructs the allocator state of a machine's handles after
// a crash from the set of reachable extents (the mark phase's output):
// each extent is routed to its owning span, reachable blocks become the
// live set, every gap below a span's high-water mark becomes free
// space, and every handle's transaction bookkeeping is cleared. The
// handles share their spans, so the space reconstruction itself runs
// once. Rebuild sorts reachable by address in place. Returns a report
// of what was reclaimed, or an error when the extents overlap or one
// lies outside every span (a corrupt reachability scan); the handles
// are then unusable until the next Reset.
func Rebuild(heaps []*Heap, reachable []Extent) (RebuildReport, error) {
	slices.SortFunc(reachable, func(a, b Extent) int { return cmp.Compare(a.Addr, b.Addr) })

	h := heaps[0]
	var rep RebuildReport
	// The spans of a layout are disjoint and the extents sorted, so a
	// span's extents form a contiguous run.
	for i := range h.all {
		s := &h.all[i]
		lo := sort.Search(len(reachable), func(i int) bool { return reachable[i].Addr >= s.base })
		hi := lo
		for hi < len(reachable) && reachable[hi].Addr < s.limit {
			hi++
		}
		if err := s.rebuild(reachable[lo:hi], &rep); err != nil {
			return rep, err
		}
	}
	if rep.ReachableBlocks != len(reachable) {
		for _, e := range reachable {
			if h.spanOf(e.Addr) == nil {
				return rep, fmt.Errorf("txheap: reachable extent %#x outside every span", e.Addr)
			}
		}
	}
	for _, h := range heaps {
		h.resetTx()
	}
	return rep, nil
}

// Reset returns a machine's handles to the state New left them in:
// every span virgin and empty, every handle's operation totals and
// transaction bookkeeping zero. A Reset followed by Rebuild gives the
// same heap, and the same report, as a Rebuild on fresh handles, while
// keeping the handles' buffers.
func Reset(heaps []*Heap) {
	for i := range heaps[0].all {
		heaps[0].all[i].reset()
	}
	for _, h := range heaps {
		h.resetTx()
		h.epochHold = false
		h.totalAllocs, h.totalFrees, h.totalBytes = 0, 0, 0
	}
}

// resetTx clears the handle's transaction bookkeeping (post-rebuild).
func (h *Heap) resetTx() {
	h.log = h.log[:0]
	h.endTx()
}

// Check verifies the allocator's span invariant: within every span, the
// blocks (live, or quarantined by a transaction whose frees are not yet
// released) and the free extents tile [base, bump) exactly — no
// overlap, no unaccounted gap — nothing lies beyond the bump pointer,
// and the live blocks add up to the span's live bytes. Crash campaigns
// run it after a rebuild to assert every span reconciled its live
// extents with the durable prefix. It scans the block index in address
// order and allocates only to report a failure.
func (h *Heap) Check() error {
	for si := range h.all {
		s := &h.all[si]
		var live uint64
		cursor, fi := s.base, 0
		for cursor < s.bump {
			if fi < len(s.free) && s.free[fi].Addr < cursor {
				return fmt.Errorf("txheap: span %d: extent %#x overlaps previous (cursor %#x)", si, s.free[fi].Addr, cursor)
			}
			limit := s.bump
			if fi < len(s.free) {
				limit = s.free[fi].Addr
			}
			if limit == cursor {
				end := s.free[fi].End()
				if a := s.ix.nextStart(cursor, end); a < end {
					return fmt.Errorf("txheap: span %d: block %#x overlaps free extent [%#x,%#x)", si, a, cursor, end)
				}
				cursor = end
				fi++
				continue
			}
			if !s.ix.isStart(cursor) {
				return fmt.Errorf("txheap: span %d: unaccounted gap [%#x,%#x)", si, cursor, s.ix.nextStart(cursor, limit))
			}
			end := s.ix.nextStart(cursor+mem.WordSize, limit)
			if s.ix.isLive(cursor) {
				live += uint64(end - cursor)
			}
			cursor = end
		}
		if fi < len(s.free) {
			if s.free[fi].Addr < cursor {
				return fmt.Errorf("txheap: span %d: extent %#x overlaps previous (cursor %#x)", si, s.free[fi].Addr, cursor)
			}
			cursor = s.free[len(s.free)-1].End()
		}
		if cursor > s.bump {
			return fmt.Errorf("txheap: span %d: extents reach %#x beyond bump %#x", si, cursor, s.bump)
		}
		if live != s.liveBytes {
			return fmt.Errorf("txheap: span %d: live blocks hold %d bytes, counted %d", si, live, s.liveBytes)
		}
	}
	return nil
}
