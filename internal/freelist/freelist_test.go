package freelist

import (
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// TestListReusesBuffer: a slice handed back is the next one GetSlice
// returns, with the same backing array, when it has the room; one
// without the room is replaced by a new one of at least twice its
// capacity, up to Keep.
func TestListReusesBuffer(t *testing.T) {
	l := List[[]int]{Keep: 64}
	s := GetSlice(&l, 10)
	if len(s) != 0 || cap(s) < 10 {
		t.Fatalf("GetSlice(10) on an empty list: len %d cap %d", len(s), cap(s))
	}
	s = append(s, 1, 2, 3)
	PutSlice(&l, s)
	got := GetSlice(&l, 5)
	if len(got) != 0 || unsafe.SliceData(got) != unsafe.SliceData(s) {
		t.Fatalf("GetSlice after PutSlice: len %d, same array %v", len(got), unsafe.SliceData(got) == unsafe.SliceData(s))
	}
	PutSlice(&l, got)
	grown := GetSlice(&l, cap(got)+1)
	if unsafe.SliceData(grown) == unsafe.SliceData(got) || cap(grown) < min(2*cap(got), l.Keep) {
		t.Fatalf("GetSlice(%d) over a slice of capacity %d: capacity %d", cap(got)+1, cap(got), cap(grown))
	}
	if _, ok := l.Get(); ok {
		t.Fatal("the list kept the slice GetSlice outgrew")
	}
}

// TestListDropsOversized: a buffer larger than Keep is not kept.
func TestListDropsOversized(t *testing.T) {
	l := List[[]int]{Keep: 64}
	PutSlice(&l, make([]int, 0, 65))
	if s, ok := l.Get(); ok {
		t.Fatalf("kept a slice of capacity %d over Keep %d", cap(s), l.Keep)
	}
	PutSlice(&l, make([]int, 0, 64))
	if _, ok := l.Get(); !ok {
		t.Fatal("dropped a slice of capacity Keep")
	}
}

// filled returns a slice of n elements 0..n-1 with capacity c.
func filled(n, c int) []int {
	s := make([]int, n, c)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestGrow is the one growth rule of the three packages' lists: Grow
// doubles from First, takes the largest free buffer with more room
// first, never keeps a buffer over Keep or of First elements or fewer,
// and takes the lock only past First.
func TestGrow(t *testing.T) {
	for _, tc := range []struct {
		name string
		free []int // capacities put before the Grow
		len  int   // length of the slice grown (full, so capacity too)
		want int   // capacity Grow returns
		kept []int // capacities left in the list, in Get order
		ops  uint64
	}{
		{name: "first capacity from nothing", len: 0, want: 16, ops: 0},
		{name: "first capacity ignores the list", free: []int{64}, len: 0, want: 16, kept: []int{64}, ops: 1},
		{name: "doubling from the first capacity", len: 16, want: 32, ops: 1},
		{name: "doubling past the first", len: 32, want: 64, ops: 1},
		{name: "largest free buffer first", free: []int{64, 256, 128}, len: 16, want: 256, kept: []int{128, 64}, ops: 4},
		{name: "a free buffer with no more room is skipped", free: []int{32, 64}, len: 64, want: 128, kept: []int{64, 32}, ops: 3},
		{name: "over Keep is never kept", free: []int{2048, 128}, len: 16, want: 128, ops: 2},
		{name: "first capacity is never kept", free: []int{16, 8}, len: 16, want: 32, ops: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := List[[]int]{Keep: 1024, First: 16}
			for _, c := range tc.free {
				PutSlice(&l, make([]int, 5, c))
			}
			s := filled(tc.len, tc.len)
			g := Grow(&l, s)
			if cap(g) != tc.want || len(g) != tc.len {
				t.Errorf("Grow of a full %d: len %d cap %d, want len %d cap %d", tc.len, len(g), cap(g), tc.len, tc.want)
			}
			for i, v := range g {
				if v != i {
					t.Fatalf("grown[%d] = %d, want %d", i, v, i)
				}
			}
			if got := l.Ops(); got != tc.ops {
				t.Errorf("%d locked operations, want %d", got, tc.ops)
			}
			var kept []int
			for {
				b, ok := l.Get()
				if !ok {
					break
				}
				kept = append(kept, cap(b))
			}
			if !slices.Equal(kept, tc.kept) {
				t.Errorf("list keeps capacities %v, want %v", kept, tc.kept)
			}
		})
	}
}

// TestTakeLarger: a buffer of any type goes back with the size Put gave
// it, and TakeLarger removes the largest one over its argument, leaving
// the others in Put order, or none when no buffer is that large.
func TestTakeLarger(t *testing.T) {
	type buf struct{ name string }
	l := List[buf]{Keep: 100}
	for _, b := range []struct {
		name string
		size int
	}{{"a", 40}, {"b", 90}, {"c", 60}, {"over", 101}} {
		l.Put(buf{b.name}, b.size)
	}
	for _, tc := range []struct {
		n    int
		want string // "" when none is taken
	}{{95, ""}, {50, "b"}, {50, "c"}, {50, ""}, {0, "a"}, {0, ""}} {
		b, ok := l.TakeLarger(tc.n)
		if ok != (tc.want != "") || b.name != tc.want {
			t.Errorf("TakeLarger(%d) = %q, %v; want %q", tc.n, b.name, ok, tc.want)
		}
	}
	if got := l.Ops(); got != 3+6 {
		t.Errorf("%d locked operations, want 9", got)
	}
}

// TestListConcurrent: goroutines getting, growing, filling and putting
// buffers never share one, and the list ends holding at most one
// buffer per goroutine. Run it under -race (make race).
func TestListConcurrent(t *testing.T) {
	const workers, rounds = 4, 500
	l := List[[]int]{Keep: 64, First: 4}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				s := GetSlice(&l, 1+r%16)
				for range 1 + r%32 {
					if len(s) == cap(s) {
						s = Grow(&l, s)
					}
					s = append(s, w)
				}
				for _, v := range s {
					if v != w {
						t.Errorf("worker %d read %d from its buffer", w, v)
						return
					}
				}
				PutSlice(&l, s)
			}
		}()
	}
	wg.Wait()
	kept := 0
	for {
		if _, ok := l.Get(); !ok {
			break
		}
		kept++
	}
	if kept > workers {
		t.Errorf("the list holds %d buffers after %d workers", kept, workers)
	}
}
