package workloads_test

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/persistmem/slpmt/internal/workloads"
)

// TestFreeListReusesBuffer: a slice handed back is the next one
// GetSlice returns, with the same backing array, when it has the room;
// one without the room is replaced by a new one of at least twice its
// capacity, up to Keep.
func TestFreeListReusesBuffer(t *testing.T) {
	l := workloads.FreeList[[]int]{Keep: 64}
	s := workloads.GetSlice(&l, 10)
	if len(s) != 0 || cap(s) < 10 {
		t.Fatalf("GetSlice(10) on an empty list: len %d cap %d", len(s), cap(s))
	}
	s = append(s, 1, 2, 3)
	workloads.PutSlice(&l, s)
	got := workloads.GetSlice(&l, 5)
	if len(got) != 0 || unsafe.SliceData(got) != unsafe.SliceData(s) {
		t.Fatalf("GetSlice after PutSlice: len %d, same array %v", len(got), unsafe.SliceData(got) == unsafe.SliceData(s))
	}
	workloads.PutSlice(&l, got)
	grown := workloads.GetSlice(&l, cap(got)+1)
	if unsafe.SliceData(grown) == unsafe.SliceData(got) || cap(grown) < min(2*cap(got), l.Keep) {
		t.Fatalf("GetSlice(%d) over a slice of capacity %d: capacity %d", cap(got)+1, cap(got), cap(grown))
	}
	if _, ok := l.Get(); ok {
		t.Fatal("the list kept the slice GetSlice outgrew")
	}
}

// TestFreeListDropsOversized: a buffer larger than Keep is not kept.
func TestFreeListDropsOversized(t *testing.T) {
	l := workloads.FreeList[[]int]{Keep: 64}
	workloads.PutSlice(&l, make([]int, 0, 65))
	if s, ok := l.Get(); ok {
		t.Fatalf("kept a slice of capacity %d over Keep %d", cap(s), l.Keep)
	}
	workloads.PutSlice(&l, make([]int, 0, 64))
	if _, ok := l.Get(); !ok {
		t.Fatal("dropped a slice of capacity Keep")
	}
}

// TestFreeListReachCorruptCount: the scan of an image whose RootCount is
// huge pre-sizes its slice from the image's size, and handing that
// slice back does not keep it, while the scan of the true count's slice
// is kept. The list is LIFO, so a kept slice is the next one ReachBuf
// returns.
func TestFreeListReachCorruptCount(t *testing.T) {
	rec, img, _ := durable(t, "hashtable")
	ext, err := rec.Reach(img)
	if err != nil {
		t.Fatal(err)
	}
	workloads.PutReach(ext)
	if again := workloads.ReachBuf(img, 1, 8); unsafe.SliceData(again) != unsafe.SliceData(ext) {
		t.Fatal("the true count's slice was not kept")
	} else {
		workloads.PutReach(again)
	}

	workloads.WriteRoot(img, workloads.RootCount, 1<<40)
	huge, err := rec.Reach(img)
	if err != nil {
		t.Fatal(err)
	}
	if cap(huge) <= cap(ext) {
		t.Fatalf("corrupt count: capacity %d, true count's %d", cap(huge), cap(ext))
	}
	workloads.PutReach(huge)
	next := workloads.ReachBuf(img, 1, 8)
	if unsafe.SliceData(next) == unsafe.SliceData(huge) {
		t.Fatalf("kept the corrupt count's slice of capacity %d", cap(huge))
	}
	workloads.PutReach(next)
}

// TestReachAllocatesNothing: every structure's Reach, handed back with
// PutReach, and its CheckDurable allocate nothing once the free lists
// hold a buffer, which is what a crash point's verification relies on.
func TestReachAllocatesNothing(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			rec, img, oracle := durable(t, name)
			reach := testing.AllocsPerRun(5, func() {
				ext, err := rec.Reach(img)
				if err != nil {
					t.Fatal(err)
				}
				workloads.PutReach(ext)
			})
			check := testing.AllocsPerRun(5, func() {
				if err := rec.CheckDurable(img, oracle); err != nil {
					t.Fatal(err)
				}
			})
			if reach != 0 || check != 0 {
				t.Errorf("Reach made %v allocations and CheckDurable %v, want 0 and 0", reach, check)
			}
		})
	}
}

// TestKeySetReuse: KeySet returns an empty set; a set handed back is
// the next one returned, emptied; a set that held more than 512 keys is
// not kept.
func TestKeySetReuse(t *testing.T) {
	id := func(m map[uint64]bool) uintptr { return uintptr(reflect.ValueOf(m).UnsafePointer()) }
	seen := workloads.KeySet()
	if len(seen) != 0 {
		t.Fatalf("KeySet returned %d keys", len(seen))
	}
	seen[1], seen[2] = true, true
	workloads.PutKeySet(seen)
	again := workloads.KeySet()
	if id(again) != id(seen) || len(again) != 0 {
		t.Fatalf("KeySet after PutKeySet: same set %v, %d keys", id(again) == id(seen), len(again))
	}
	for k := range uint64(513) {
		again[k] = true
	}
	workloads.PutKeySet(again)
	if next := workloads.KeySet(); id(next) == id(again) {
		t.Fatal("kept a set of 513 keys")
	} else {
		workloads.PutKeySet(next)
	}
}

// TestFreeListConcurrent: goroutines getting, filling and putting
// buffers never share one, and the list ends holding at most one
// buffer per goroutine. Run it under -race (make race).
func TestFreeListConcurrent(t *testing.T) {
	const workers, rounds = 4, 500
	l := workloads.FreeList[[]int]{Keep: 64}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				s := workloads.GetSlice(&l, 1+r%16)
				for range 1 + r%16 {
					s = append(s, w)
				}
				for _, v := range s {
					if v != w {
						t.Errorf("worker %d read %d from its buffer", w, v)
						return
					}
				}
				workloads.PutSlice(&l, s)
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
