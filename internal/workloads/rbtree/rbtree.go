// Package rbtree implements the paper's red-black tree kernel
// (Table II): a self-balancing binary tree whose nodes carry a parent
// pointer and a color field.
//
// Annotation discipline (§IV):
//
//   - all fields of a freshly allocated node are log-free (Pattern 1);
//   - parent-pointer updates on existing nodes are lazy and log-free:
//     parent pointers are fully derivable from the child links, so
//     recovery rebuilds them with one tree walk. This is the pattern
//     the paper's compiler also finds ("a few lazily persistent pointer
//     variables, such as the parent pointer of the rbtree");
//   - child-link updates, recolorings and the root pointer on existing
//     nodes are plain logged stores (the color is not derivable — the
//     paper notes its compiler misses it too, without performance
//     impact since colors share lines with logged child pointers).
package rbtree

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
	offParent = 32
	offColor  = 40
	offVal    = 48
)

// Colors.
const (
	red   = 0
	black = 1
)

func init() {
	workloads.Register("rbtree", func() workloads.Workload { return New() })
}

// Tree is the red-black tree workload.
type Tree struct{ rd workloads.Scratch }

// New returns a fresh rbtree workload.
func New() *Tree { return &Tree{} }

// Name implements workloads.Workload.
func (t *Tree) Name() string { return "rbtree" }

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

// Field accessors (volatile view through the transaction).

func fKey(tx *slpmt.Tx, n slpmt.Addr) uint64    { return tx.LoadU64(n + offKey) }
func fLeft(tx *slpmt.Tx, n slpmt.Addr) uint64   { return tx.LoadU64(n + offLeft) }
func fRight(tx *slpmt.Tx, n slpmt.Addr) uint64  { return tx.LoadU64(n + offRight) }
func fParent(tx *slpmt.Tx, n slpmt.Addr) uint64 { return tx.LoadU64(n + offParent) }
func fColor(tx *slpmt.Tx, n slpmt.Addr) uint64  { return tx.LoadU64(n + offColor) }

// setChild updates a child link on an existing node: plain logged store.
func setLeft(tx *slpmt.Tx, n slpmt.Addr, v uint64)  { tx.StoreU64(n+offLeft, v) }
func setRight(tx *slpmt.Tx, n slpmt.Addr, v uint64) { tx.StoreU64(n+offRight, v) }

// setParent updates a parent pointer: lazy + log-free (derivable).
func setParent(tx *slpmt.Tx, n slpmt.Addr, v uint64) {
	tx.StoreTU64(n+offParent, v, slpmt.LazyLogFree)
}

// setColor recolors an existing node: plain logged store.
func setColor(tx *slpmt.Tx, n slpmt.Addr, c uint64) { tx.StoreU64(n+offColor, c) }

// Insert implements workloads.Workload.
func (t *Tree) Insert(sys *slpmt.System, key uint64, value []byte) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		root := slpmt.Addr(tx.Root(workloads.RootMain))

		// BST descent.
		var parent slpmt.Addr
		cur := root
		goLeft := false
		for cur != 0 {
			parent = cur
			k := fKey(tx, cur)
			if key == k {
				return fmt.Errorf("rbtree: duplicate key %d", key)
			}
			if key < k {
				cur = slpmt.Addr(fLeft(tx, cur))
				goLeft = true
			} else {
				cur = slpmt.Addr(fRight(tx, cur))
				goLeft = false
			}
		}

		// Fresh node: every field log-free (Pattern 1).
		n := tx.Alloc(offVal + uint64(len(value)))
		tx.StoreTU64(n+offKey, key, slpmt.LogFree)
		tx.StoreTU64(n+offVLen, uint64(len(value)), slpmt.LogFree)
		tx.StoreTU64(n+offLeft, 0, slpmt.LogFree)
		tx.StoreTU64(n+offRight, 0, slpmt.LogFree)
		tx.StoreTU64(n+offParent, uint64(parent), slpmt.LogFree)
		tx.StoreTU64(n+offColor, red, slpmt.LogFree)
		tx.StoreT(n+offVal, value, slpmt.LogFree)

		// Link into the tree: logged (the structural commit point).
		if parent == 0 {
			tx.SetRoot(workloads.RootMain, uint64(n))
		} else if goLeft {
			setLeft(tx, parent, uint64(n))
		} else {
			setRight(tx, parent, uint64(n))
		}

		t.insertFixup(tx, n)
		tx.SetRoot(workloads.RootCount, tx.Root(workloads.RootCount)+1)
		return nil
	})
}

// insertFixup restores the red-black invariants after inserting the red
// node z (CLRS).
func (t *Tree) insertFixup(tx *slpmt.Tx, z slpmt.Addr) {
	for {
		p := slpmt.Addr(fParent(tx, z))
		if p == 0 || fColor(tx, p) == black {
			break
		}
		g := slpmt.Addr(fParent(tx, p))
		if g == 0 {
			break
		}
		if uint64(p) == fLeft(tx, g) {
			u := slpmt.Addr(fRight(tx, g))
			if u != 0 && fColor(tx, u) == red {
				setColor(tx, p, black)
				setColor(tx, u, black)
				setColor(tx, g, red)
				z = g
				continue
			}
			if uint64(z) == fRight(tx, p) {
				z = p
				t.rotateLeft(tx, z)
				p = slpmt.Addr(fParent(tx, z))
				g = slpmt.Addr(fParent(tx, p))
			}
			setColor(tx, p, black)
			setColor(tx, g, red)
			t.rotateRight(tx, g)
		} else {
			u := slpmt.Addr(fLeft(tx, g))
			if u != 0 && fColor(tx, u) == red {
				setColor(tx, p, black)
				setColor(tx, u, black)
				setColor(tx, g, red)
				z = g
				continue
			}
			if uint64(z) == fLeft(tx, p) {
				z = p
				t.rotateRight(tx, z)
				p = slpmt.Addr(fParent(tx, z))
				g = slpmt.Addr(fParent(tx, p))
			}
			setColor(tx, p, black)
			setColor(tx, g, red)
			t.rotateLeft(tx, g)
		}
	}
	root := slpmt.Addr(tx.Root(workloads.RootMain))
	if fColor(tx, root) != black {
		setColor(tx, root, black)
	}
}

// rotateLeft rotates the subtree at x left; child links are logged,
// parent pointers lazy+log-free.
func (t *Tree) rotateLeft(tx *slpmt.Tx, x slpmt.Addr) {
	y := slpmt.Addr(fRight(tx, x))
	yl := fLeft(tx, y)
	setRight(tx, x, yl)
	if yl != 0 {
		setParent(tx, slpmt.Addr(yl), uint64(x))
	}
	p := slpmt.Addr(fParent(tx, x))
	setParent(tx, y, uint64(p))
	if p == 0 {
		tx.SetRoot(workloads.RootMain, uint64(y))
	} else if uint64(x) == fLeft(tx, p) {
		setLeft(tx, p, uint64(y))
	} else {
		setRight(tx, p, uint64(y))
	}
	setLeft(tx, y, uint64(x))
	setParent(tx, x, uint64(y))
}

// rotateRight is the mirror of rotateLeft.
func (t *Tree) rotateRight(tx *slpmt.Tx, x slpmt.Addr) {
	y := slpmt.Addr(fLeft(tx, x))
	yr := fRight(tx, y)
	setLeft(tx, x, yr)
	if yr != 0 {
		setParent(tx, slpmt.Addr(yr), uint64(x))
	}
	p := slpmt.Addr(fParent(tx, x))
	setParent(tx, y, uint64(p))
	if p == 0 {
		tx.SetRoot(workloads.RootMain, uint64(y))
	} else if uint64(x) == fLeft(tx, p) {
		setLeft(tx, p, uint64(y))
	} else {
		setRight(tx, p, uint64(y))
	}
	setRight(tx, y, uint64(x))
	setParent(tx, x, uint64(y))
}

// Get implements workloads.Workload.
func (t *Tree) Get(sys *slpmt.System, key uint64) (val []byte, ok bool) {
	sys.View(func(tx *slpmt.Tx) {
		n := slpmt.Addr(tx.Root(workloads.RootMain))
		for n != 0 {
			k := fKey(tx, n)
			switch {
			case key == k:
				val, ok = t.rd.Value(tx, n+offVLen, n+offVal), true
				return
			case key < k:
				n = slpmt.Addr(fLeft(tx, n))
			default:
				n = slpmt.Addr(fRight(tx, n))
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

// Recover implements workloads.Recoverable: rebuilds every parent
// pointer from the (logged, undo-restored) child links — the recovery
// counterpart of marking parent stores lazy+log-free.
func (t *Tree) Recover(img *pmem.Image) error {
	root := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	if root == 0 {
		return nil
	}
	var fix func(n, parent mem.Addr) error
	var depth int
	fix = func(n, parent mem.Addr) error {
		if n == 0 {
			return nil
		}
		depth++
		if depth > 1<<20 {
			return fmt.Errorf("rbtree recover: cycle suspected")
		}
		img.WriteU64(n+offParent, uint64(parent))
		if err := fix(mem.Addr(img.ReadU64(n+offLeft)), n); err != nil {
			return err
		}
		return fix(mem.Addr(img.ReadU64(n+offRight)), n)
	}
	return fix(root, 0)
}

// Reach implements workloads.Recoverable.
func (t *Tree) Reach(img *pmem.Image) ([]txheap.Extent, error) {
	count := workloads.ReadRoot(img, workloads.RootCount)
	out := workloads.ReachBuf(img, count, offVal)
	var walk func(n mem.Addr) error
	walk = func(n mem.Addr) error {
		if n == 0 {
			return nil
		}
		vlen := img.ReadU64(n + offVLen)
		out = append(out, txheap.Extent{Addr: n, Size: offVal + vlen})
		if err := walk(mem.Addr(img.ReadU64(n + offLeft))); err != nil {
			return err
		}
		return walk(mem.Addr(img.ReadU64(n + offRight)))
	}
	if err := walk(mem.Addr(workloads.ReadRoot(img, workloads.RootMain))); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckDurable implements workloads.Recoverable.
func (t *Tree) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if err := workloads.CheckCount("rbtree", workloads.ReadRoot(img, workloads.RootCount), oracle); err != nil {
		return err
	}
	root := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	// The strict BST bounds admit no duplicate key, so a count of the
	// nodes that pass is the number of distinct keys, as in avl.
	seen := 0
	var firstErr error
	var walk func(n mem.Addr, lo, hi uint64, parent mem.Addr) int
	walk = func(n mem.Addr, lo, hi uint64, parent mem.Addr) int {
		if firstErr != nil {
			return 0
		}
		if n == 0 {
			return 1
		}
		k := img.ReadU64(n + offKey)
		if k <= lo || k >= hi {
			firstErr = fmt.Errorf("rbtree durable: BST violation at %d", k)
			return 0
		}
		if mem.Addr(img.ReadU64(n+offParent)) != parent {
			firstErr = fmt.Errorf("rbtree durable: bad parent at %d", k)
			return 0
		}
		want, ok := oracle[k]
		if !ok {
			firstErr = fmt.Errorf("rbtree durable: unexpected key %d", k)
			return 0
		}
		if img.ReadU64(n+offVLen) != uint64(len(want)) || !img.Equal(n+offVal, want) {
			firstErr = fmt.Errorf("rbtree durable: value mismatch at %d", k)
			return 0
		}
		seen++
		c := img.ReadU64(n + offColor)
		l := mem.Addr(img.ReadU64(n + offLeft))
		r := mem.Addr(img.ReadU64(n + offRight))
		if c == red {
			if (l != 0 && img.ReadU64(l+offColor) == red) || (r != 0 && img.ReadU64(r+offColor) == red) {
				firstErr = fmt.Errorf("rbtree durable: red-red at %d", k)
				return 0
			}
		}
		bl := walk(l, lo, k, n)
		br := walk(r, k, hi, n)
		if firstErr == nil && bl != br {
			firstErr = fmt.Errorf("rbtree durable: black-height mismatch at %d", k)
		}
		if c == black {
			return bl + 1
		}
		return bl
	}
	if root != 0 {
		if img.ReadU64(root+offColor) != black {
			return fmt.Errorf("rbtree durable: red root")
		}
		walk(root, 0, ^uint64(0), 0)
	}
	if firstErr != nil {
		return firstErr
	}
	if seen != len(oracle) {
		return fmt.Errorf("rbtree durable: %d keys, oracle %d", seen, len(oracle))
	}
	return nil
}
