// Package avl implements the paper's AVL tree kernel (Table II): a
// self-balancing binary tree without parent pointers.
//
// Annotation discipline (§IV): the AVL tree offers the fewest selective
// logging opportunities of the kernels — only the freshly allocated
// node's fields are log-free (Pattern 1); every rotation, child-link and
// height update on existing nodes is a plain logged store, because
// heights and links are overwritten in place and are not derivable
// without a walk the recovery contract does not assume.
package avl

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Node layout.
const (
	offKey    = 0
	offVLen   = 8
	offLeft   = 16
	offRight  = 24
	offHeight = 32
	offVal    = 40
)

func init() {
	workloads.Register("avl", func() workloads.Workload { return New() })
}

// Tree is the AVL workload.
type Tree struct{ rd workloads.Scratch }

// New returns a fresh AVL workload.
func New() *Tree { return &Tree{} }

// Name implements workloads.Workload.
func (t *Tree) Name() string { return "avl" }

// ComputeCost implements workloads.Workload.
func (t *Tree) ComputeCost() uint64 { return 2 }

// Setup implements workloads.Workload.
func (t *Tree) Setup(sys *slpmt.System) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		tx.SetRoot(workloads.RootMain, 0)
		tx.SetRoot(workloads.RootCount, 0)
		return nil
	})
}

func height(tx *slpmt.Tx, n slpmt.Addr) uint64 {
	if n == 0 {
		return 0
	}
	return tx.LoadU64(n + offHeight)
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// fixHeight recomputes a node's height, storing only on change (plain
// logged store).
func fixHeight(tx *slpmt.Tx, n slpmt.Addr) {
	h := 1 + maxU(height(tx, slpmt.Addr(tx.LoadU64(n+offLeft))),
		height(tx, slpmt.Addr(tx.LoadU64(n+offRight))))
	if tx.LoadU64(n+offHeight) != h {
		tx.StoreU64(n+offHeight, h)
	}
}

func balance(tx *slpmt.Tx, n slpmt.Addr) int64 {
	return int64(height(tx, slpmt.Addr(tx.LoadU64(n+offLeft)))) -
		int64(height(tx, slpmt.Addr(tx.LoadU64(n+offRight))))
}

// rotateRight returns the new subtree root.
func rotateRight(tx *slpmt.Tx, y slpmt.Addr) slpmt.Addr {
	x := slpmt.Addr(tx.LoadU64(y + offLeft))
	t2 := tx.LoadU64(x + offRight)
	tx.StoreU64(y+offLeft, t2)
	tx.StoreU64(x+offRight, uint64(y))
	fixHeight(tx, y)
	fixHeight(tx, x)
	return x
}

// rotateLeft returns the new subtree root.
func rotateLeft(tx *slpmt.Tx, x slpmt.Addr) slpmt.Addr {
	y := slpmt.Addr(tx.LoadU64(x + offRight))
	t2 := tx.LoadU64(y + offLeft)
	tx.StoreU64(x+offRight, t2)
	tx.StoreU64(y+offLeft, uint64(x))
	fixHeight(tx, x)
	fixHeight(tx, y)
	return y
}

// Insert implements workloads.Workload.
func (t *Tree) Insert(sys *slpmt.System, key uint64, value []byte) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		root := slpmt.Addr(tx.Root(workloads.RootMain))
		newRoot, err := t.insert(tx, root, key, value)
		if err != nil {
			return err
		}
		if newRoot != root {
			tx.SetRoot(workloads.RootMain, uint64(newRoot))
		}
		tx.SetRoot(workloads.RootCount, tx.Root(workloads.RootCount)+1)
		return nil
	})
}

func (t *Tree) insert(tx *slpmt.Tx, n slpmt.Addr, key uint64, value []byte) (slpmt.Addr, error) {
	if n == 0 {
		// Fresh node: all fields log-free (Pattern 1).
		fresh := tx.Alloc(offVal + uint64(len(value)))
		tx.StoreTU64(fresh+offKey, key, slpmt.LogFree)
		tx.StoreTU64(fresh+offVLen, uint64(len(value)), slpmt.LogFree)
		tx.StoreTU64(fresh+offLeft, 0, slpmt.LogFree)
		tx.StoreTU64(fresh+offRight, 0, slpmt.LogFree)
		tx.StoreTU64(fresh+offHeight, 1, slpmt.LogFree)
		tx.StoreT(fresh+offVal, value, slpmt.LogFree)
		return fresh, nil
	}
	k := tx.LoadU64(n + offKey)
	switch {
	case key == k:
		return 0, fmt.Errorf("avl: duplicate key %d", key)
	case key < k:
		child, err := t.insert(tx, slpmt.Addr(tx.LoadU64(n+offLeft)), key, value)
		if err != nil {
			return 0, err
		}
		if uint64(child) != tx.LoadU64(n+offLeft) {
			tx.StoreU64(n+offLeft, uint64(child))
		}
	default:
		child, err := t.insert(tx, slpmt.Addr(tx.LoadU64(n+offRight)), key, value)
		if err != nil {
			return 0, err
		}
		if uint64(child) != tx.LoadU64(n+offRight) {
			tx.StoreU64(n+offRight, uint64(child))
		}
	}
	fixHeight(tx, n)
	b := balance(tx, n)
	switch {
	case b > 1:
		l := slpmt.Addr(tx.LoadU64(n + offLeft))
		if key > tx.LoadU64(l+offKey) {
			nl := rotateLeft(tx, l)
			tx.StoreU64(n+offLeft, uint64(nl))
		}
		return rotateRight(tx, n), nil
	case b < -1:
		r := slpmt.Addr(tx.LoadU64(n + offRight))
		if key < tx.LoadU64(r+offKey) {
			nr := rotateRight(tx, r)
			tx.StoreU64(n+offRight, uint64(nr))
		}
		return rotateLeft(tx, n), nil
	}
	return n, nil
}

// Get implements workloads.Workload.
func (t *Tree) Get(sys *slpmt.System, key uint64) (val []byte, ok bool) {
	sys.View(func(tx *slpmt.Tx) {
		n := slpmt.Addr(tx.Root(workloads.RootMain))
		for n != 0 {
			k := tx.LoadU64(n + offKey)
			switch {
			case key == k:
				val, ok = t.rd.Value(tx, n+offVLen, n+offVal), true
				return
			case key < k:
				n = slpmt.Addr(tx.LoadU64(n + offLeft))
			default:
				n = slpmt.Addr(tx.LoadU64(n + offRight))
			}
		}
	})
	return val, ok
}

// Check implements workloads.Workload (see workloads.Check).
func (t *Tree) Check(sys *slpmt.System, oracle map[uint64][]byte) error {
	return workloads.Check(sys, t, oracle)
}

// --- Recovery over the durable image -------------------------------

// Recover implements workloads.Recoverable. The AVL tree uses no lazy
// persistency and its log-free data is only ever in unreachable fresh
// nodes, so after the undo log is applied there is nothing to repair.
func (t *Tree) Recover(img *pmem.Image) error { return nil }

// Reach implements workloads.Recoverable.
func (t *Tree) Reach(img *pmem.Image) ([]txheap.Extent, error) {
	count := workloads.ReadRoot(img, workloads.RootCount)
	out := workloads.ReachBuf(img, count, offVal)
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if n == 0 {
			return
		}
		vlen := img.ReadU64(n + offVLen)
		out = append(out, txheap.Extent{Addr: n, Size: offVal + vlen})
		walk(mem.Addr(img.ReadU64(n + offLeft)))
		walk(mem.Addr(img.ReadU64(n + offRight)))
	}
	walk(mem.Addr(workloads.ReadRoot(img, workloads.RootMain)))
	return out, nil
}

// CheckDurable implements workloads.Recoverable.
func (t *Tree) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if err := workloads.CheckCount("avl", workloads.ReadRoot(img, workloads.RootCount), oracle); err != nil {
		return err
	}
	seen := 0
	var firstErr error
	var walk func(n mem.Addr, lo, hi uint64) uint64
	walk = func(n mem.Addr, lo, hi uint64) uint64 {
		if n == 0 || firstErr != nil {
			return 0
		}
		k := img.ReadU64(n + offKey)
		if k <= lo || k >= hi {
			firstErr = fmt.Errorf("avl durable: BST violation at %d", k)
			return 0
		}
		want, ok := oracle[k]
		if !ok {
			firstErr = fmt.Errorf("avl durable: unexpected key %d", k)
			return 0
		}
		if img.ReadU64(n+offVLen) != uint64(len(want)) || !img.Equal(n+offVal, want) {
			firstErr = fmt.Errorf("avl durable: value mismatch at %d", k)
			return 0
		}
		seen++
		hl := walk(mem.Addr(img.ReadU64(n+offLeft)), lo, k)
		hr := walk(mem.Addr(img.ReadU64(n+offRight)), k, hi)
		if firstErr != nil {
			return 0
		}
		if d := int64(hl) - int64(hr); d > 1 || d < -1 {
			firstErr = fmt.Errorf("avl durable: imbalance at %d", k)
			return 0
		}
		h := 1 + maxU(hl, hr)
		if img.ReadU64(n+offHeight) != h {
			firstErr = fmt.Errorf("avl durable: stale height at %d", k)
			return 0
		}
		return h
	}
	walk(mem.Addr(workloads.ReadRoot(img, workloads.RootMain)), 0, ^uint64(0))
	if firstErr != nil {
		return firstErr
	}
	if seen != len(oracle) {
		return fmt.Errorf("avl durable: %d keys, oracle %d", seen, len(oracle))
	}
	return nil
}
