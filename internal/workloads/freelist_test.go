package workloads_test

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/persistmem/slpmt/internal/workloads"
)

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
