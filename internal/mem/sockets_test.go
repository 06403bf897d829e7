package mem

import "testing"

// TestMultiLayoutSocketsMapUnchanged pins the refactor's central
// contract: the address map (heap, log stack, root directory) is
// byte-identical for any socket count — sockets only add an
// interpretation (SocketOf) and the arena carve-out on top of it.
func TestMultiLayoutSocketsMapUnchanged(t *testing.T) {
	const size, cores = 64 << 20, 4
	base := MultiLayoutSockets(size, cores, 1)
	for _, sockets := range []int{2, 4} {
		ls := MultiLayoutSockets(size, cores, sockets)
		for i := range ls {
			b, l := base[i], ls[i]
			if l.HeapBase != b.HeapBase || l.HeapSize != b.HeapSize ||
				l.LogBase != b.LogBase || l.LogSize != b.LogSize ||
				l.RootBase != b.RootBase || l.RootSize != b.RootSize {
				t.Errorf("core %d, %d sockets: address map drifted: %+v vs %+v", i, sockets, l, b)
			}
		}
	}
}

func TestMultiLayoutSocketsArenas(t *testing.T) {
	ls := MultiLayoutSockets(64<<20, 3, 2)
	for i, l := range ls {
		if l.ArenaBase != l.HeapBase+uint64(i)*SocketStripe || l.ArenaSize != SocketStripe {
			t.Errorf("core %d arena [%#x,%d)", i, l.ArenaBase, l.ArenaSize)
		}
		// Arena i is stripe i: on core i's home socket by construction.
		if got, want := l.SocketOf(l.ArenaBase), i%2; got != want {
			t.Errorf("core %d arena on socket %d, want %d", i, got, want)
		}
	}
	// Single-socket layouts carve no arenas.
	for _, l := range MultiLayoutSockets(64<<20, 3, 1) {
		if l.ArenaBase != 0 || l.ArenaSize != 0 {
			t.Errorf("single-socket layout carved an arena: %+v", l)
		}
	}
}

func TestSocketOfSingleSocketConstant(t *testing.T) {
	l := DefaultLayout(64 << 20)
	for _, a := range []Addr{0, l.HeapBase, l.LogBase, l.RootBase, l.Size - 1} {
		if l.SocketOf(a) != 0 {
			t.Errorf("SocketOf(%#x) != 0 on a single-socket layout", a)
		}
	}
	// The zero-valued layout (unit tests that never build one) is also
	// single-socket.
	if (Layout{}).SocketOf(12345) != 0 {
		t.Error("zero-valued layout not constant 0")
	}
}

func TestSocketOfRegions(t *testing.T) {
	const cores, sockets = 4, 2
	ls := MultiLayoutSockets(64<<20, cores, sockets)
	l := ls[0]

	// Root directory (and the group-commit descriptor line): socket 0.
	if l.SocketOf(l.RootBase) != 0 || l.SocketOf(l.GroupDesc()) != 0 {
		t.Error("root directory not on socket 0")
	}
	// Guard line below the heap: socket 0.
	if l.SocketOf(0) != 0 {
		t.Error("guard line not on socket 0")
	}
	// Each core's log region is local to its home socket — the property
	// that keeps every log persist off the interconnect.
	for k, lk := range ls {
		for _, a := range []Addr{lk.LogBase, lk.LogBase + lk.LogSize - 1} {
			if got, want := l.SocketOf(a), k%sockets; got != want {
				t.Errorf("core %d log addr %#x on socket %d, want %d", k, a, got, want)
			}
		}
	}
	// Arena stripes j < cores: socket j mod sockets, constant across the
	// whole stripe.
	for j := 0; j < cores; j++ {
		lo := l.HeapBase + uint64(j)*SocketStripe
		for _, a := range []Addr{lo, lo + SocketStripe - 1} {
			if got, want := l.SocketOf(a), j%sockets; got != want {
				t.Errorf("stripe %d addr %#x on socket %d, want %d", j, a, got, want)
			}
		}
	}
	// The global fallback (past the last arena stripe) line-interleaves:
	// adjacent lines alternate sockets, addresses within a line agree.
	fb := l.HeapBase + uint64(cores)*SocketStripe
	s0, s1 := l.SocketOf(fb), l.SocketOf(fb+LineSize)
	if s0 == s1 {
		t.Error("fallback lines not interleaved")
	}
	if l.SocketOf(fb+LineSize-1) != s0 || l.SocketOf(fb+2*LineSize) != s0 {
		t.Error("fallback interleave not line-granular with period = sockets")
	}
}

// TestSocketOfTotal: every address of the device maps to a valid socket
// — the routing layers index device arrays with the result.
func TestSocketOfTotal(t *testing.T) {
	l := MultiLayoutSockets(64<<20, 3, 4)[1]
	for a := Addr(0); a < l.Size; a += 7919 { // prime stride samples every region
		s := l.SocketOf(a)
		if s < 0 || s >= 4 {
			t.Fatalf("SocketOf(%#x) = %d out of range", a, s)
		}
	}
}
