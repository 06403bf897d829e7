package workloads_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/workloads"
)

// durable returns a recovered durable image of a workload holding 40
// keys, with the workload and its oracle.
func durable(t *testing.T, name string) (workloads.Recoverable, *pmem.Image, map[uint64][]byte) {
	t.Helper()
	w, sys, oracle := loaded(t, name, 40)
	rec := w.(workloads.Recoverable)
	img := sys.Mach.Crash()
	if err := rec.Recover(img); err != nil {
		t.Fatal(err)
	}
	if err := rec.CheckDurable(img, oracle); err != nil {
		t.Fatalf("clean image: %v", err)
	}
	return rec, img, oracle
}

// copyBytes copies n bytes at src to dst within img.
func copyBytes(img *pmem.Image, dst, src mem.Addr, n uint64) {
	buf := make([]byte, n)
	img.Read(src, buf)
	img.Write(dst, buf)
}

// TestCheckDurableRejectsPlantedDuplicate: each case writes a second
// node or entry holding a key the structure already holds into a
// durable image, and leaves the count as it was. Hashtable, heap and
// dlist catch it with their key set. rbtree and the kv indices catch it
// with their strict key order, which admits no duplicate, before any
// key set is filled. A clean image must then pass on a fresh instance:
// the key set comes from a package free list, and must carry no marks
// from the rejected check into the next one.
func TestCheckDurableRejectsPlantedDuplicate(t *testing.T) {
	// Node offsets, as the structure packages lay their nodes out.
	const (
		htNext, htVLen, htVal   = 8, 16, 24 // hashtable offNext, offVLen, offVal
		heapEnt                 = 16        // binheap entSize
		dlVLen, dlPrev, dlNext  = 8, 16, 24 // dlist offVLen, offPrev, offNext
		dlVal                   = 32        // dlist offVal
		rbVLen, rbLeft, rbRight = 8, 16, 24 // rbtree offVLen, offLeft, offRight
		rbParent, rbColor       = 32, 40    // rbtree offParent, offColor
		rbVal, rbBlack          = 48, 1     // rbtree offVal, black
		btLeaf, btKey0, btVal0  = 8, 16, 72 // kvstore btLeaf, btKeys, btVals
		btKid0                  = 128       // kvstore btKids
		ctChild0, ctChild1      = 8, 16     // kvstore ctChild0, ctChild1
		rtKid0, leafSize, tag   = 16, 16, 1 // kvstore rtKids, ct/rt leaf size, leaf tag
	)
	cases := []struct {
		workload, want string
		// plant writes the duplicate into img, with spare free heap
		// memory for a copied node.
		plant func(img *pmem.Image, root, spare mem.Addr)
	}{
		{"hashtable", "duplicate key", func(img *pmem.Image, arr, spare mem.Addr) {
			// A copy of a bucket's first node becomes its new head.
			b := arr
			for img.ReadU64(b) == 0 {
				b += 8
			}
			n := mem.Addr(img.ReadU64(b))
			copyBytes(img, spare, n, htVal+img.ReadU64(n+htVLen))
			img.WriteU64(spare+htNext, uint64(n))
			img.WriteU64(b, uint64(spare))
		}},
		{"heap", "duplicate key", func(img *pmem.Image, arr, _ mem.Addr) {
			copyBytes(img, arr+heapEnt, arr, heapEnt) // entry 1 := its parent, entry 0
		}},
		{"dlist", "duplicate key", func(img *pmem.Image, n, spare mem.Addr) {
			// A copy of the first node is spliced in after it.
			next := mem.Addr(img.ReadU64(n + dlNext))
			copyBytes(img, spare, n, dlVal+img.ReadU64(n+dlVLen))
			img.WriteU64(spare+dlPrev, uint64(n))
			img.WriteU64(spare+dlNext, uint64(next))
			if next != 0 {
				img.WriteU64(next+dlPrev, uint64(spare))
			}
			img.WriteU64(n+dlNext, uint64(spare))
		}},
		{"rbtree", "BST violation", func(img *pmem.Image, n, spare mem.Addr) {
			// A black copy of the leftmost node becomes its left child.
			for l := mem.Addr(img.ReadU64(n + rbLeft)); l != 0; l = mem.Addr(img.ReadU64(n + rbLeft)) {
				n = l
			}
			copyBytes(img, spare, n, rbVal+img.ReadU64(n+rbVLen))
			img.WriteU64(spare+rbLeft, 0)
			img.WriteU64(spare+rbRight, 0)
			img.WriteU64(spare+rbParent, uint64(n))
			img.WriteU64(spare+rbColor, rbBlack)
			img.WriteU64(n+rbLeft, uint64(spare))
		}},
		{"kv-btree", "key order violation", func(img *pmem.Image, x, _ mem.Addr) {
			// The leftmost leaf's second pair := its first.
			for img.ReadU64(x+btLeaf) != 1 {
				x = mem.Addr(img.ReadU64(x + btKid0))
			}
			img.WriteU64(x+btKey0+8, img.ReadU64(x+btKey0))
			img.WriteU64(x+btVal0+8, img.ReadU64(x+btVal0))
		}},
		{"kv-ctree", "wrong side", func(img *pmem.Image, n, spare mem.Addr) {
			// Follow the 1-branches to a leaf; a copy of it replaces its
			// parent's 0-branch.
			for img.ReadU64(n+ctChild1)&tag == 0 {
				n = mem.Addr(img.ReadU64(n + ctChild1))
			}
			copyBytes(img, spare, mem.Addr(img.ReadU64(n+ctChild1)&^tag), leafSize)
			img.WriteU64(n+ctChild0, uint64(spare)|tag)
		}},
		{"kv-rtree", "wrong path", func(img *pmem.Image, n, spare mem.Addr) {
			// Follow first children down to a node with a leaf child; a
			// copy of that leaf replaces the next child slot.
			for {
				var first mem.Addr
				for i := mem.Addr(0); i < 16; i++ {
					p := img.ReadU64(n + rtKid0 + 8*i)
					if p&tag != 0 {
						copyBytes(img, spare, mem.Addr(p&^tag), leafSize)
						img.WriteU64(n+rtKid0+8*((i+1)%16), uint64(spare)|tag)
						return
					}
					if first == 0 {
						first = mem.Addr(p)
					}
				}
				n = first
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			rec, img, oracle := durable(t, tc.workload)
			clean := img.Clone()
			layout := mem.DefaultLayout(img.Size())
			spare := mem.Addr(layout.HeapBase + layout.HeapSize/2) // far above 40 keys' blocks
			tc.plant(img, mem.Addr(workloads.ReadRoot(img, workloads.RootMain)), spare)
			err := rec.CheckDurable(img, oracle)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("planted duplicate: got %v, want an error containing %q", err, tc.want)
			}
			fresh := workloads.MustNew(tc.workload).(workloads.Recoverable)
			if err := fresh.CheckDurable(clean, oracle); err != nil {
				t.Fatalf("clean image on a fresh instance: %v", err)
			}
		})
	}
}

// TestReachIgnoresCorruptCount: Reach pre-sizes its extent slice from
// RootCount, clamped to what the image could hold. With the count
// overwritten by 1<<40 it must return what it returns with the true
// count, in as few allocations. heap is left out: its count is the
// length of the array Reach walks, not a size hint.
func TestReachIgnoresCorruptCount(t *testing.T) {
	for _, name := range workloads.Names() {
		if name == "heap" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rec, img, _ := durable(t, name)
			reach := func() (string, float64) {
				ext, err := rec.Reach(img)
				allocs := testing.AllocsPerRun(2, func() { _, _ = rec.Reach(img) })
				return fmt.Sprint(ext, err), allocs
			}
			want, wantAllocs := reach()
			workloads.WriteRoot(img, workloads.RootCount, 1<<40)
			got, gotAllocs := reach()
			if got != want {
				t.Errorf("Reach with a corrupt count returned\n%s\nwant\n%s", got, want)
			}
			if gotAllocs > wantAllocs {
				t.Errorf("Reach with a corrupt count made %v allocations, with the true count %v", gotAllocs, wantAllocs)
			}
		})
	}
}
