package engine

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/mem"
)

// drainLazyLists empties the process-wide list of grown lazy lists, so
// a test sees the growth of a process that has grown none yet.
func drainLazyLists() {
	for {
		if _, ok := lazyLists.Get(); !ok {
			return
		}
	}
}

// lazyTx runs one transaction of n lazy log-free stores to distinct
// lines. It appends the running list's capacity steps to steps, if
// steps is not nil, and returns the list's array at commit, which the
// retained transaction keeps.
func lazyTx(e *Engine, n int, steps *[]int) *uint32 {
	base := e.m.Layout.HeapBase
	e.Begin()
	for i := 0; i < n; i++ {
		e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i), isa.StoreT, isa.LazyLogFree)
		if c := cap(e.cur.lazy); steps != nil && (len(*steps) == 0 || (*steps)[len(*steps)-1] != c) {
			*steps = append(*steps, c)
		}
	}
	arr := unsafe.SliceData(e.cur.lazy)
	e.Commit()
	return arr
}

// TestLazyListReuse: a transaction of at most minLazyCap lazy lines
// commits and drains with no allocation and no operation on lazyLists;
// a rehash-sized list drained on one machine is the list the next
// machine's rehash-sized transaction grows into, in one step from its
// first list; and a warm engine then runs both sizes allocating
// nothing.
func TestLazyListReuse(t *testing.T) {
	drainLazyLists()
	e, _ := newEng(slpmtCfg())
	small := func() {
		lazyTx(e, minLazyCap, nil)
		e.DrainLazy()
	}
	small()
	ops := lazyLists.Ops()
	if allocs := testing.AllocsPerRun(20, small); allocs != 0 {
		t.Errorf("a %d-line lazy transaction allocates %.1f times, want 0", minLazyCap, allocs)
	}
	if got := lazyLists.Ops() - ops; got != 0 {
		t.Errorf("a %d-line lazy transaction took the list's lock %d times, want 0", minLazyCap, got)
	}

	const lines = 5000
	first, _ := newEng(slpmtCfg())
	grown := lazyTx(first, lines, nil)
	first.DrainLazy()
	next, _ := newEng(slpmtCfg())
	var steps []int
	arr := lazyTx(next, lines, &steps)
	if want := []int{minLazyCap, 8192}; !slices.Equal(steps, want) || arr != grown {
		t.Errorf("the next machine's lazy list capacities %v, same array %v; want %v, the first machine's array", steps, arr == grown, want)
	}
	next.DrainLazy()
	// The first list a growth replaces stays with the engine, so a
	// rehash-sized transaction followed by a small one allocates nothing.
	e = next
	cycle := func() {
		lazyTx(e, lines, nil)
		e.DrainLazy()
		small()
	}
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Errorf("a rehash-sized and a %d-line lazy transaction allocate %.1f times, want 0", minLazyCap, allocs)
	}
}
