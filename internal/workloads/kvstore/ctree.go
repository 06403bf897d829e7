package kvstore

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
)

// ctree is a crit-bit (binary radix) tree, mirroring the libpmemobj
// ctree_map example. Internal nodes branch on the most significant bit
// position where their subtrees' keys differ; leaves hold (key, vptr).
// Leaf pointers are tagged with bit 0 (all allocations are 8-byte
// aligned).
//
// Annotation profile: an insert allocates one fresh leaf and one fresh
// internal node (both entirely log-free, Pattern 1) and performs exactly
// one logged pointer update to splice them in — the most
// selective-logging-friendly structure in the suite, which is why
// kv-ctree shows the paper's highest speedup (Figure 14).
type ctree struct{}

// Internal node layout.
const (
	ctBit    = 0  // differing bit index (63 = MSB)
	ctChild0 = 8  // subtree where key bit is 0
	ctChild1 = 16 // subtree where key bit is 1
	ctSize   = 24
)

// Leaf layout.
const (
	ctLeafKey  = 0
	ctLeafVPtr = 8
	ctLeafSize = 16
)

func ctIsLeaf(p uint64) bool        { return p&1 == 1 }
func ctUntag(p uint64) mem.Addr     { return mem.Addr(p &^ 1) }
func ctTagLeaf(a slpmt.Addr) uint64 { return uint64(a) | 1 }

func keyBit(key uint64, bit uint64) uint64 { return (key >> bit) & 1 }

// msbDiff returns the index of the most significant differing bit.
func msbDiff(a, b uint64) uint64 {
	x := a ^ b
	bit := uint64(0)
	for i := 63; i >= 0; i-- {
		if x&(1<<uint(i)) != 0 {
			bit = uint64(i)
			break
		}
	}
	return bit
}

func (c *ctree) computeCost() uint64 { return 1 }

func (c *ctree) setup(tx *slpmt.Tx) {
	tx.SetRoot(workloads.RootMain, 0)
}

func (c *ctree) newLeaf(tx *slpmt.Tx, key uint64, vptr slpmt.Addr) slpmt.Addr {
	l := tx.Alloc(ctLeafSize)
	tx.StoreTU64(l+ctLeafKey, key, slpmt.LogFree)
	tx.StoreTU64(l+ctLeafVPtr, uint64(vptr), slpmt.LogFree)
	return l
}

func (c *ctree) insert(tx *slpmt.Tx, key uint64, vptr slpmt.Addr) error {
	root := tx.Root(workloads.RootMain)
	if root == 0 {
		leaf := c.newLeaf(tx, key, vptr)
		tx.SetRoot(workloads.RootMain, ctTagLeaf(leaf))
		return nil
	}
	// Find the nearest leaf to compute the differing bit.
	p := root
	for !ctIsLeaf(p) {
		n := ctUntag(p)
		bit := tx.LoadU64(n + ctBit)
		if keyBit(key, bit) == 0 {
			p = tx.LoadU64(n + ctChild0)
		} else {
			p = tx.LoadU64(n + ctChild1)
		}
	}
	nearKey := tx.LoadU64(ctUntag(p) + ctLeafKey)
	if nearKey == key {
		return fmt.Errorf("ctree: duplicate key %d", key)
	}
	diff := msbDiff(key, nearKey)

	// Re-descend to the splice point: the first edge whose target is a
	// leaf or an internal node with a less significant differing bit.
	var parent slpmt.Addr // 0 = root slot
	parentSide := uint64(0)
	p = root
	for !ctIsLeaf(p) {
		n := ctUntag(p)
		bit := tx.LoadU64(n + ctBit)
		if bit < diff {
			break
		}
		parent = slpmt.Addr(n)
		parentSide = keyBit(key, bit)
		if parentSide == 0 {
			p = tx.LoadU64(n + ctChild0)
		} else {
			p = tx.LoadU64(n + ctChild1)
		}
	}

	// Fresh leaf + fresh internal node: all log-free (Pattern 1).
	leaf := c.newLeaf(tx, key, vptr)
	in := tx.Alloc(ctSize)
	tx.StoreTU64(in+ctBit, diff, slpmt.LogFree)
	if keyBit(key, diff) == 0 {
		tx.StoreTU64(in+ctChild0, ctTagLeaf(leaf), slpmt.LogFree)
		tx.StoreTU64(in+ctChild1, p, slpmt.LogFree)
	} else {
		tx.StoreTU64(in+ctChild1, ctTagLeaf(leaf), slpmt.LogFree)
		tx.StoreTU64(in+ctChild0, p, slpmt.LogFree)
	}

	// Single logged splice.
	switch {
	case parent == 0:
		tx.SetRoot(workloads.RootMain, uint64(in))
	case parentSide == 0:
		tx.StoreU64(parent+ctChild0, uint64(in))
	default:
		tx.StoreU64(parent+ctChild1, uint64(in))
	}
	return nil
}

func (c *ctree) lookup(tx *slpmt.Tx, key uint64) (slpmt.Addr, bool) {
	p := tx.Root(workloads.RootMain)
	if p == 0 {
		return 0, false
	}
	for !ctIsLeaf(p) {
		n := ctUntag(p)
		bit := tx.LoadU64(n + ctBit)
		if keyBit(key, bit) == 0 {
			p = tx.LoadU64(n + ctChild0)
		} else {
			p = tx.LoadU64(n + ctChild1)
		}
	}
	l := ctUntag(p)
	if tx.LoadU64(l+ctLeafKey) != key {
		return 0, false
	}
	return slpmt.Addr(tx.LoadU64(l + ctLeafVPtr)), true
}

func (c *ctree) recover(img *pmem.Image) error { return nil }

func (c *ctree) walkDurable(img *pmem.Image, fn func(uint64, mem.Addr) error) error {
	var walk func(p uint64) error
	walk = func(p uint64) error {
		if p == 0 {
			return nil
		}
		if ctIsLeaf(p) {
			l := ctUntag(p)
			return fn(img.ReadU64(l+ctLeafKey), mem.Addr(img.ReadU64(l+ctLeafVPtr)))
		}
		n := ctUntag(p)
		if err := walk(img.ReadU64(n + ctChild0)); err != nil {
			return err
		}
		return walk(img.ReadU64(n + ctChild1))
	}
	return walk(workloads.ReadRoot(img, workloads.RootMain))
}

func (c *ctree) appendNodes(out []txheap.Extent, img *pmem.Image) []txheap.Extent {
	return ctNodes(out, img, workloads.ReadRoot(img, workloads.RootMain))
}

// ctNodes appends the extents of the subtree at tagged pointer p,
// preorder.
func ctNodes(out []txheap.Extent, img *pmem.Image, p uint64) []txheap.Extent {
	if p == 0 {
		return out
	}
	if ctIsLeaf(p) {
		return append(out, txheap.Extent{Addr: ctUntag(p), Size: ctLeafSize})
	}
	n := ctUntag(p)
	out = append(out, txheap.Extent{Addr: n, Size: ctSize})
	out = ctNodes(out, img, img.ReadU64(n+ctChild0))
	return ctNodes(out, img, img.ReadU64(n+ctChild1))
}

// maxNodes: one leaf per key and one fewer internal nodes.
func (c *ctree) maxNodes(count uint64) uint64 { return 2 * count }

// checkDurable verifies crit-bit invariants: no internal node has a nil
// child, bit indices strictly decrease downward, and every leaf's key
// agrees with the branch its path took at each ancestor's bit. The bit
// order bounds the recursion at 64 internal nodes, so a corrupt image
// (a zeroed or looping child) fails the check instead of the stack.
func (c *ctree) checkDurable(img *pmem.Image) error {
	// path holds the branch taken at each ancestor; the bit order
	// keeps it within 64 entries.
	var path [64]struct{ bit, side uint64 }
	depth := 0
	var walk func(p, above uint64) error
	walk = func(p, above uint64) error {
		if ctIsLeaf(p) {
			k := img.ReadU64(ctUntag(p) + ctLeafKey)
			for _, b := range path[:depth] {
				if keyBit(k, b.bit) != b.side {
					return fmt.Errorf("ctree durable: key %d on wrong side of bit %d", k, b.bit)
				}
			}
			return nil
		}
		n := ctUntag(p)
		bit := img.ReadU64(n + ctBit)
		if bit >= above {
			return fmt.Errorf("ctree durable: bit order violation (%d under %d)", bit, above)
		}
		for side := uint64(0); side <= 1; side++ {
			ch := img.ReadU64(n + ctChild0 + mem.Addr(8*side))
			if ch == 0 {
				return fmt.Errorf("ctree durable: nil child under bit %d", bit)
			}
			path[depth].bit, path[depth].side = bit, side
			depth++
			err := walk(ch, bit)
			depth--
			if err != nil {
				return err
			}
		}
		return nil
	}
	if root := workloads.ReadRoot(img, workloads.RootMain); root != 0 {
		return walk(root, 64)
	}
	return nil
}
