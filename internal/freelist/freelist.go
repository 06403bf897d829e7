// Package freelist keeps emptied host buffers for reuse across the
// platforms of one process: the PM devices' WPQ backlogs, the engine's
// write sets, epoch line sets and lazy-line lists, the heap handles'
// extent logs, and the workloads' scratch (key sets, reach extents). A
// crash campaign builds or resets a platform for every point, and a
// parallel sweep runs one per worker, so a buffer kept per platform is
// rebuilt once per point; a package-level List serves them all. It
// imports only sync, so any simulator package can hold one.
package freelist

import "sync"

// List is a stack of emptied buffers kept for reuse. It holds at most
// as many buffers as were ever out at once. Unlike a sync.Pool, the
// list is not emptied by garbage collections (nor thinned by the race
// detector), so allocation counts do not depend on when one ran. Safe
// for concurrent use.
type List[B any] struct {
	// Keep is the largest size, in elements, a buffer may have and still
	// be kept, so a one-off large structure, or a corrupt count in a
	// durable image, never pins its buffer.
	Keep int
	// First is the capacity Grow gives a buffer with less room. A buffer
	// of First elements or fewer stays with its owner: Grow makes it
	// without taking the lock and PutSlice does not keep it, so an owner
	// that keeps its first buffer touches the list only for grown ones.
	First int

	mu   sync.Mutex
	free []kept[B]
	ops  uint64
}

// kept is a buffer of the list with its size, in elements.
type kept[B any] struct {
	b    B
	size int
}

// Get pops the buffer put last; ok is false when the list is empty.
func (l *List[B]) Get() (b B, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	n := len(l.free)
	if n == 0 {
		return b, false
	}
	b = l.free[n-1].b
	l.free[n-1] = kept[B]{}
	l.free = l.free[:n-1]
	return b, true
}

// TakeLarger removes and returns the largest buffer l holds, if its
// size exceeds n; ok is false when l holds none that large.
func (l *List[B]) TakeLarger(n int) (b B, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	best := -1
	for i, k := range l.free {
		if k.size > n && (best < 0 || k.size > l.free[best].size) {
			best = i
		}
	}
	if best < 0 {
		return b, false
	}
	b = l.free[best].b
	last := len(l.free) - 1
	copy(l.free[best:], l.free[best+1:])
	l.free[last] = kept[B]{}
	l.free = l.free[:last]
	return b, true
}

// Put keeps b, a buffer of size elements, for a later Get, unless size
// exceeds Keep. The caller must not use b afterwards.
func (l *List[B]) Put(b B, size int) {
	if size > l.Keep {
		return
	}
	l.mu.Lock()
	l.ops++
	l.free = append(l.free, kept[B]{b, size})
	l.mu.Unlock()
}

// Ops returns the number of operations that took the list's lock.
func (l *List[B]) Ops() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops
}

// GetSlice returns an empty slice with room for n elements: the buffer
// l put last if it has the room, a new one otherwise. A new one has
// room for twice the old one's elements (up to Keep) when that is more,
// so a sweep whose sizes creep up point by point regrows its buffer a
// logarithmic number of times.
func GetSlice[E any](l *List[[]E], n int) []E {
	s, _ := l.Get()
	if cap(s) < n {
		s = make([]E, 0, max(n, min(2*cap(s), l.Keep)))
	}
	return s[:0]
}

// PutSlice hands s back to l for a later GetSlice or Grow, unless its
// capacity is at most First or exceeds Keep. The caller must not use s
// afterwards.
func PutSlice[E any](l *List[[]E], s []E) {
	if cap(s) > l.First {
		l.Put(s[:0], cap(s))
	}
}

// Grow returns s's elements in a buffer with more room. A slice with
// less room than First gets a new buffer of First. Any other takes the
// largest buffer l holds, if that has more room than s, and otherwise a
// new one of twice s's capacity: a buffer sized by one large
// transaction (a rehash's thousands of lazy moves or extent entries)
// is grown once per process, and each later owner jumps to it in one
// copy. s itself stays the caller's.
func Grow[E any](l *List[[]E], s []E) []E {
	var g []E
	if cap(s) < l.First {
		g = make([]E, len(s), l.First)
		copy(g, s)
		return g
	}
	g, ok := l.TakeLarger(cap(s))
	if !ok {
		g = make([]E, 0, max(2*cap(s), 1))
	}
	g = g[:len(s)]
	copy(g, s)
	return g
}
