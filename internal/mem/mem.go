// Package mem defines the primitive address arithmetic shared by every
// layer of the SLPMT simulator: word and cache-line geometry, address
// alignment helpers, and the simulated physical address space layout.
// It also maps the demand-zero host memory (MapZeroed) that backs the
// memory images and the cache tag arrays.
//
// The simulator models a flat byte-addressable persistent memory. All
// higher-level components (caches, log buffer, transaction engine, heap
// allocator) agree on the constants defined here; changing LineSize or
// WordSize is not supported.
package mem

// Addr is a simulated physical byte address.
type Addr = uint64

// Geometry of the simulated memory system. These mirror the paper's
// assumptions: 8-byte words, 64-byte cache lines, eight words per line.
const (
	// WordSize is the logging granularity of fine-grain schemes (bytes).
	WordSize = 8
	// LineSize is the cache-line size in bytes.
	LineSize = 64
	// WordsPerLine is the number of log-bit-tracked words in a line.
	WordsPerLine = LineSize / WordSize // 8
	// LineShift is log2(LineSize).
	LineShift = 6
	// WordShift is log2(WordSize).
	WordShift = 3
)

// LineAddr returns the address of the cache line containing a.
func LineAddr(a Addr) Addr { return a &^ (LineSize - 1) }

// LineOffset returns the byte offset of a within its cache line.
func LineOffset(a Addr) int { return int(a & (LineSize - 1)) }

// WordIndex returns the index (0..7) of the word containing a within its
// cache line.
func WordIndex(a Addr) int { return int(a&(LineSize-1)) >> WordShift }

// AlignUp rounds a up to the next multiple of align. align must be a
// power of two.
func AlignUp(a Addr, align uint64) Addr { return (a + align - 1) &^ (align - 1) }

// AlignedTo reports whether a is a multiple of align (a power of two).
func AlignedTo(a Addr, align uint64) bool { return a&(align-1) == 0 }

// WordMask returns the bitmask (one bit per word, bit i = word i) of the
// words in the line at lineAddr touched by the byte range [a, a+size).
// The range must lie entirely within one cache line.
func WordMask(a Addr, size int) uint8 {
	first := WordIndex(a)
	last := WordIndex(a + Addr(size) - 1)
	var m uint8
	for i := first; i <= last; i++ {
		m |= 1 << uint(i)
	}
	return m
}

// SpansLines reports whether the byte range [a, a+size) crosses a cache
// line boundary.
func SpansLines(a Addr, size int) bool {
	if size <= 0 {
		return false
	}
	return LineAddr(a) != LineAddr(a+Addr(size)-1)
}

// LineRange invokes fn for each (lineAddr, start, end) triple covering the
// byte range [a, a+size), where start/end are byte offsets into the
// respective line. It is the canonical way to split an unaligned access
// into per-line sub-accesses.
func LineRange(a Addr, size int, fn func(line Addr, off, n int)) {
	for size > 0 {
		line := LineAddr(a)
		off := LineOffset(a)
		n := LineSize - off
		if n > size {
			n = size
		}
		fn(line, off, n)
		a += Addr(n)
		size -= n
	}
}

// Layout describes the simulated persistent memory address map. The heap
// occupies the low region; the undo/redo log area and the root directory
// occupy the top. Everything is line-aligned.
type Layout struct {
	// Size is the total PM capacity in bytes.
	Size uint64
	// HeapBase and HeapSize delimit the allocatable persistent heap.
	HeapBase, HeapSize uint64
	// LogBase and LogSize delimit the hardware log area.
	LogBase, LogSize uint64
	// RootBase and RootSize delimit the root directory used by recovery
	// to find the application's top-level persistent pointers.
	RootBase, RootSize uint64
	// Cores and Sockets describe the machine the map was built for.
	// Sockets < 2 means the historical single-device map (SocketOf is
	// then constant 0 and no arenas are carved).
	Cores, Sockets int
	// ArenaBase and ArenaSize delimit this core's local allocation
	// arena: a SocketStripe-sized slice of the heap whose stripe lives
	// on the core's home socket. Zero when Sockets < 2 — the heap is
	// then one undivided region.
	ArenaBase, ArenaSize uint64
}

// Region sizes of the default address map: a 4 MiB hardware log area
// (per core) and a 4 KiB root directory at the top of the device.
const (
	LogRegionSize  = 4 << 20
	RootRegionSize = 4 << 10
	// SocketStripe is the granularity of the heap's socket interleave on
	// a multi-socket topology: stripe i of the heap maps to socket
	// i mod Sockets. It is also the per-core arena size — arena i is
	// exactly stripe i, so (with cores pinned home = i mod sockets)
	// every core's arena is socket-local by construction.
	SocketStripe = 1 << 20
)

// DefaultLayout returns the address map used throughout the evaluation:
// a PM device of the given size with a 4 MiB log area and a 4 KiB root
// directory carved from the top.
func DefaultLayout(size uint64) Layout {
	return coreLayout(size, 1, 1, 0)
}

// MultiLayoutSockets returns the per-core address maps of a machine
// whose PM is a multi-socket topology. Every core shares the heap and
// the root directory; each core owns a private 4 MiB hardware log
// region, stacked downward from the root directory (core 0 highest, so
// MultiLayoutSockets(size, 1, 1)[0] is exactly DefaultLayout). The
// address map itself (heap, log regions, root directory) is the same
// for any socket count; sockets only adds an interpretation of it:
//
//   - The heap is striped over the sockets at SocketStripe granularity
//     (see SocketOf). Core i's local arena is stripe i — on core i's
//     home socket (i mod sockets) by construction. The stripes past the
//     last core form the shared global fallback pool.
//   - Core i's private log region sits on socket i mod sockets: the log
//     stack grows downward from the root directory with core 0 on top,
//     and SocketOf maps log region k to socket k mod sockets — so every
//     core's log persists are socket-local.
//   - The root directory (and the group-commit descriptor line) lives
//     on socket 0.
//
// With sockets < 2 there is no stripe or arena.
func MultiLayoutSockets(size uint64, cores, sockets int) []Layout {
	cores, sockets = max(cores, 1), max(sockets, 1)
	out := make([]Layout, cores)
	for i := range out {
		out[i] = coreLayout(size, cores, sockets, i)
	}
	return out
}

// coreLayout is core i's map for MultiLayoutSockets. It returns one
// value, so DefaultLayout allocates nothing.
func coreLayout(size uint64, cores, sockets, i int) Layout {
	need := uint64(cores)*LogRegionSize + RootRegionSize + LineSize
	if size < need {
		panic("mem: PM size too small for layout")
	}
	rootBase := size - RootRegionSize
	heapSize := rootBase - uint64(cores)*LogRegionSize - LineSize
	if sockets > 1 && uint64(cores+1)*SocketStripe > heapSize {
		panic("mem: PM heap too small for per-core socket arenas")
	}
	l := Layout{
		Size:     size,
		HeapBase: LineSize, // keep address 0 unmapped to catch nil derefs
		HeapSize: heapSize,
		LogBase:  rootBase - uint64(i+1)*LogRegionSize,
		LogSize:  LogRegionSize,
		RootBase: rootBase,
		RootSize: RootRegionSize,
		Cores:    cores,
		Sockets:  sockets,
	}
	if sockets > 1 {
		l.ArenaBase = LineSize + uint64(i)*SocketStripe
		l.ArenaSize = SocketStripe
	}
	return l
}

// SocketOf returns the socket holding address a under the layout's
// interleave. Single-socket layouts (including zero-valued ones) map
// everything to socket 0. The map is:
//
//   - root directory: socket 0
//   - log region of core k (stacked downward from the root): socket
//     k mod Sockets — local to its owning core
//   - heap arena stripes (the first Cores stripes): stripe j on socket
//     j mod Sockets — each core's arena is local to its home socket
//   - heap global-fallback region (every stripe past the arenas):
//     line-interleaved across the sockets, spreading shared objects
//   - the unmapped guard line below the heap: socket 0
func (l Layout) SocketOf(a Addr) int {
	if l.Sockets < 2 {
		return 0
	}
	return l.stripedSocketOf(a)
}

// stripedSocketOf is SocketOf on a multi-socket layout, kept out of line
// so the single-socket case inlines into the persist path.
//
//go:noinline
func (l Layout) stripedSocketOf(a Addr) int {
	if a >= l.RootBase {
		return 0
	}
	logLow := l.RootBase - uint64(l.Cores)*LogRegionSize
	if a >= logLow {
		k := int((l.RootBase - 1 - a) / LogRegionSize)
		return k % l.Sockets
	}
	if a < l.HeapBase {
		return 0
	}
	stripe := (a - l.HeapBase) / SocketStripe
	if stripe >= uint64(l.Cores) {
		// Global fallback region (past the last per-core arena stripe):
		// line-interleaved across the sockets, so large shared objects —
		// a hashtable's bucket array, a tree's setup-built spine —
		// spread their lines evenly instead of camping on the arena
		// owner's socket and serializing every sibling's persists
		// behind one write queue.
		return int((a >> LineShift) % uint64(l.Sockets))
	}
	return int(stripe % uint64(l.Sockets))
}

// GroupDesc returns the address of the group-commit descriptor line:
// the top line of the root directory, reserved for the multi-core
// epoch-group commit point. Root slots live at the bottom of the
// region, so the reservation takes slots 504..511 out of circulation;
// per-transaction (W = 1) machines never touch the line.
func (l Layout) GroupDesc() Addr { return l.RootBase + l.RootSize - LineSize }

// InHeap reports whether the byte range [a, a+size) lies entirely in the
// heap region.
func (l Layout) InHeap(a Addr, size int) bool {
	return a >= l.HeapBase && a+Addr(size) <= l.HeapBase+l.HeapSize
}

// InLog reports whether a lies in the log region.
func (l Layout) InLog(a Addr) bool {
	return a >= l.LogBase && a < l.LogBase+l.LogSize
}
