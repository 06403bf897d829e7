package kvstore

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
)

// btree is a B-tree of minimum degree btreeT (up to 2t-1 = 7 keys and 2t
// = 8 children per node), inserted with single-pass preemptive splits
// (CLRS). It mirrors the libpmemobj btree_map example's 8-slot nodes.
//
// Annotation profile: node splits copy the upper half of a full node
// into a fresh node — log-free (Pattern 1). In-node shifts to make room
// move data whose source is overwritten in the same transaction, so
// they stay plain logged stores; this mix is why kv-btree sits between
// ctree (almost all fresh stores) and the kernels in the paper's
// Figure 14.
type btree struct{}

const btreeT = 4 // minimum degree

const (
	btMaxKeys = 2*btreeT - 1 // 7
	btMaxKids = 2 * btreeT   // 8
)

// Node layout.
const (
	btN    = 0
	btLeaf = 8
	btKeys = 16                   // 7 * 8 = 56 bytes
	btVals = btKeys + 8*btMaxKeys // 72
	btKids = btVals + 8*btMaxKeys // 128
	btSize = btKids + 8*btMaxKids // 192
)

func btKey(i int) slpmt.Addr { return slpmt.Addr(btKeys + 8*i) }
func btVal(i int) slpmt.Addr { return slpmt.Addr(btVals + 8*i) }
func btKid(i int) slpmt.Addr { return slpmt.Addr(btKids + 8*i) }

func (b *btree) computeCost() uint64 { return 2 }

// newNode allocates and zero-initializes a fresh node (all log-free).
func (b *btree) newNode(tx *slpmt.Tx, leaf bool) slpmt.Addr {
	n := tx.Alloc(btSize)
	zeros := make([]byte, btSize)
	tx.StoreT(n, zeros, slpmt.LogFree)
	if leaf {
		tx.StoreTU64(n+btLeaf, 1, slpmt.LogFree)
	}
	return n
}

func (b *btree) setup(tx *slpmt.Tx) {
	root := b.newNode(tx, true)
	tx.SetRoot(workloads.RootMain, uint64(root))
}

func (b *btree) insert(tx *slpmt.Tx, key uint64, vptr slpmt.Addr) error {
	root := slpmt.Addr(tx.Root(workloads.RootMain))
	if tx.LoadU64(root+btN) == btMaxKeys {
		// Grow: fresh root above the full old root.
		nr := b.newNode(tx, false)
		tx.StoreTU64(nr+btKid(0), uint64(root), slpmt.LogFree)
		b.splitChild(tx, nr, 0, root)
		tx.SetRoot(workloads.RootMain, uint64(nr))
		root = nr
	}
	return b.insertNonFull(tx, root, key, vptr)
}

// splitChild splits the full child y (= x.children[i]) around its median
// key: the upper half moves into a fresh node z (log-free copies), the
// median moves up into x (plain: x is an existing node).
func (b *btree) splitChild(tx *slpmt.Tx, x slpmt.Addr, i int, y slpmt.Addr) {
	leaf := tx.LoadU64(y+btLeaf) == 1
	z := b.newNode(tx, leaf)

	// Upper t-1 keys/values of y move to z: fresh destination.
	for j := 0; j < btreeT-1; j++ {
		tx.CopyU64(z+btKey(j), y+btKey(j+btreeT), slpmt.LogFree)
		tx.CopyU64(z+btVal(j), y+btVal(j+btreeT), slpmt.LogFree)
	}
	if !leaf {
		for j := 0; j < btreeT; j++ {
			tx.CopyU64(z+btKid(j), y+btKid(j+btreeT), slpmt.LogFree)
		}
	}
	tx.StoreTU64(z+btN, btreeT-1, slpmt.LogFree)

	// Shrink y (logged; the stale upper entries become invisible).
	tx.StoreU64(y+btN, btreeT-1)

	// Make room in x: shift children and keys right (logged moves).
	xn := int(tx.LoadU64(x + btN))
	for j := xn; j > i; j-- {
		tx.CopyU64(x+btKid(j+1), x+btKid(j), slpmt.Plain)
	}
	tx.StoreU64(x+btKid(i+1), uint64(z))
	for j := xn - 1; j >= i; j-- {
		tx.CopyU64(x+btKey(j+1), x+btKey(j), slpmt.Plain)
		tx.CopyU64(x+btVal(j+1), x+btVal(j), slpmt.Plain)
	}
	// Median of y moves up into x.
	tx.CopyU64(x+btKey(i), y+btKey(btreeT-1), slpmt.Plain)
	tx.CopyU64(x+btVal(i), y+btVal(btreeT-1), slpmt.Plain)
	tx.StoreU64(x+btN, uint64(xn+1))
}

func (b *btree) insertNonFull(tx *slpmt.Tx, x slpmt.Addr, key uint64, vptr slpmt.Addr) error {
	for {
		n := int(tx.LoadU64(x + btN))
		if tx.LoadU64(x+btLeaf) == 1 {
			// Shift larger items right and place.
			i := n - 1
			for i >= 0 {
				k := tx.LoadU64(x + btKey(i))
				if k == key {
					return fmt.Errorf("btree: duplicate key %d", key)
				}
				if k < key {
					break
				}
				tx.CopyU64(x+btKey(i+1), x+btKey(i), slpmt.Plain)
				tx.CopyU64(x+btVal(i+1), x+btVal(i), slpmt.Plain)
				i--
			}
			tx.StoreU64(x+btKey(i+1), key)
			tx.StoreU64(x+btVal(i+1), uint64(vptr))
			tx.StoreU64(x+btN, uint64(n+1))
			return nil
		}
		// Internal: find child, split preemptively if full.
		i := 0
		for i < n {
			k := tx.LoadU64(x + btKey(i))
			if k == key {
				return fmt.Errorf("btree: duplicate key %d", key)
			}
			if key < k {
				break
			}
			i++
		}
		c := slpmt.Addr(tx.LoadU64(x + btKid(i)))
		if tx.LoadU64(c+btN) == btMaxKeys {
			b.splitChild(tx, x, i, c)
			mid := tx.LoadU64(x + btKey(i))
			if key == mid {
				return fmt.Errorf("btree: duplicate key %d", key)
			}
			if key > mid {
				i++
			}
			c = slpmt.Addr(tx.LoadU64(x + btKid(i)))
		}
		x = c
	}
}

func (b *btree) lookup(tx *slpmt.Tx, key uint64) (slpmt.Addr, bool) {
	x := slpmt.Addr(tx.Root(workloads.RootMain))
	for x != 0 {
		n := int(tx.LoadU64(x + btN))
		i := 0
		for i < n {
			k := tx.LoadU64(x + btKey(i))
			if k == key {
				return slpmt.Addr(tx.LoadU64(x + btVal(i))), true
			}
			if key < k {
				break
			}
			i++
		}
		if tx.LoadU64(x+btLeaf) == 1 {
			return 0, false
		}
		x = slpmt.Addr(tx.LoadU64(x + btKid(i)))
	}
	return 0, false
}

// recover: the btree uses no lazy persistency; fresh split nodes either
// became reachable through logged parent updates or are garbage.
func (b *btree) recover(img *pmem.Image) error { return nil }

func (b *btree) walkDurable(img *pmem.Image, fn func(uint64, mem.Addr) error) error {
	var walk func(x mem.Addr) error
	walk = func(x mem.Addr) error {
		n := int(img.ReadU64(x + btN))
		leaf := img.ReadU64(x+btLeaf) == 1
		for i := 0; i < n; i++ {
			if !leaf {
				if err := walk(mem.Addr(img.ReadU64(x + mem.Addr(btKid(i))))); err != nil {
					return err
				}
			}
			if err := fn(img.ReadU64(x+mem.Addr(btKey(i))), mem.Addr(img.ReadU64(x+mem.Addr(btVal(i))))); err != nil {
				return err
			}
		}
		if !leaf {
			return walk(mem.Addr(img.ReadU64(x + mem.Addr(btKid(n)))))
		}
		return nil
	}
	return walk(mem.Addr(workloads.ReadRoot(img, workloads.RootMain)))
}

func (b *btree) appendNodes(out []txheap.Extent, img *pmem.Image) []txheap.Extent {
	return btNodes(out, img, mem.Addr(workloads.ReadRoot(img, workloads.RootMain)))
}

// btNodes appends the extents of the subtree at x, preorder.
func btNodes(out []txheap.Extent, img *pmem.Image, x mem.Addr) []txheap.Extent {
	out = append(out, txheap.Extent{Addr: x, Size: btSize})
	if img.ReadU64(x+btLeaf) == 1 {
		return out
	}
	n := int(img.ReadU64(x + btN))
	for i := 0; i <= n; i++ {
		out = btNodes(out, img, mem.Addr(img.ReadU64(x+mem.Addr(btKid(i)))))
	}
	return out
}

// maxNodes: every node but the root holds at least btreeT-1 keys.
func (b *btree) maxNodes(count uint64) uint64 { return count/(btreeT-1) + 1 }

func (b *btree) checkDurable(img *pmem.Image) error {
	root := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	depth := -1
	var walk func(x mem.Addr, lo, hi uint64, d int) error
	walk = func(x mem.Addr, lo, hi uint64, d int) error {
		n := int(img.ReadU64(x + btN))
		leaf := img.ReadU64(x+btLeaf) == 1
		if n > btMaxKeys {
			return fmt.Errorf("btree durable: overfull node (%d keys)", n)
		}
		if x != root && n < btreeT-1 {
			return fmt.Errorf("btree durable: underfull node (%d keys)", n)
		}
		prev := lo
		for i := 0; i < n; i++ {
			k := img.ReadU64(x + mem.Addr(btKey(i)))
			if k <= prev || k >= hi {
				return fmt.Errorf("btree durable: key order violation at %d", k)
			}
			prev = k
		}
		if leaf {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("btree durable: uneven leaf depth")
			}
			return nil
		}
		cl := lo
		for i := 0; i <= n; i++ {
			ch := hi
			if i < n {
				ch = img.ReadU64(x + mem.Addr(btKey(i)))
			}
			if err := walk(mem.Addr(img.ReadU64(x+mem.Addr(btKid(i)))), cl, ch, d+1); err != nil {
				return err
			}
			cl = ch
		}
		return nil
	}
	return walk(root, 0, ^uint64(0), 0)
}
