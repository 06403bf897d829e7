package workloads_test

import (
	"testing"

	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/workloads"
)

// TestCheckRejectsCorruptionGetCannotSee: each case rewrites one word of
// a structure's volatile memory that no Get of a stored key reads, so
// CheckOracle still passes. Check must reject it all the same, because
// it runs the structure's whole invariant check over the volatile view.
func TestCheckRejectsCorruptionGetCannotSee(t *testing.T) {
	// Node offsets, as the structure packages lay their nodes out.
	const (
		dlistPrev, dlistNext = 16, 24    // dlist offPrev, offNext
		rbLeft, rbParent     = 16, 32    // rbtree offLeft, offParent
		avlHeight            = 32        // avl offHeight
		btN, btLeaf, btKid0  = 0, 8, 128 // kvstore btN, btLeaf, btKids
	)
	cases := []struct {
		workload string
		// corrupt rewrites one word through c, given the structure's
		// main root pointer.
		corrupt func(c *machine.Core, root uint64)
	}{
		{"dlist", func(c *machine.Core, root uint64) {
			second := c.ReadU64(root + dlistNext)
			c.WriteU64(second+dlistPrev, second) // prev points at itself
		}},
		{"rbtree", func(c *machine.Core, root uint64) {
			left := c.ReadU64(root + rbLeft)
			c.WriteU64(left+rbParent, left) // parent points at itself
		}},
		{"avl", func(c *machine.Core, root uint64) {
			c.WriteU64(root+avlHeight, c.ReadU64(root+avlHeight)+1)
		}},
		{"kv-btree", func(c *machine.Core, root uint64) {
			// Count one more slot in the leftmost leaf: its stored keys
			// are still found before the scan reaches the extra slot,
			// but the node now holds a key out of order (or too many).
			x := root
			for c.ReadU64(x+btLeaf) != 1 {
				x = c.ReadU64(x + btKid0)
			}
			c.WriteU64(x+btN, c.ReadU64(x+btN)+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			w, sys, oracle := loaded(t, tc.workload, 40)
			if err := w.Check(sys, oracle); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			tc.corrupt(sys.Mach, sys.Mach.ReadU64(sys.Layout().RootBase+8*workloads.RootMain))
			if err := workloads.CheckOracle(sys, w, oracle); err != nil {
				t.Fatalf("Get sees the corruption, so the case shows nothing: %v", err)
			}
			if err := w.Check(sys, oracle); err == nil {
				t.Fatal("Check accepted the corrupted structure")
			} else {
				t.Log(err)
			}
		})
	}
}
