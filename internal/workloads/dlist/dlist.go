// Package dlist implements the paper's introductory example (Figure 1)
// as a first-class workload: a durable doubly-linked list where the
// bidirectional links provide the algorithmic redundancy selective
// logging exploits. Each insert performs four pointer writes, and —
// exactly as Figure 1 argues — only the first (the predecessor's next
// pointer) needs an undo record:
//
//   - the fresh node's fields are log-free (Pattern 1);
//   - the successor's prev pointer is lazy + log-free: every prev
//     pointer is derivable from the next chain, so recovery rebuilds
//     them all with one forward walk (the Figure 1(d) fix-up).
//
// The list is keyed (newest first) so it supports the standard
// workload-driver operations; inserts prepend at the head.
package dlist

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
	offKey  = 0
	offVLen = 8
	offPrev = 16
	offNext = 24
	offVal  = 32
)

func init() {
	workloads.Register("dlist", func() workloads.Workload { return New() })
}

// List is the doubly-linked-list workload.
type List struct{ rd workloads.Scratch }

// New returns a fresh dlist workload.
func New() *List { return &List{} }

// Name implements workloads.Workload.
func (l *List) Name() string { return "dlist" }

// ComputeCost implements workloads.Workload.
func (l *List) ComputeCost() uint64 { return 1 }

// Setup implements workloads.Workload.
func (l *List) Setup(sys *slpmt.System) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		tx.SetRoot(workloads.RootMain, 0)
		tx.SetRoot(workloads.RootCount, 0)
		return nil
	})
}

// Insert implements workloads.Workload: prepend at the head with the
// Figure 1 annotation discipline.
func (l *List) Insert(sys *slpmt.System, key uint64, value []byte) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		head := slpmt.Addr(tx.Root(workloads.RootMain))
		n := tx.Alloc(offVal + uint64(len(value)))
		tx.StoreTU64(n+offKey, key, slpmt.LogFree)
		tx.StoreTU64(n+offVLen, uint64(len(value)), slpmt.LogFree)
		tx.StoreTU64(n+offPrev, 0, slpmt.LogFree)
		tx.StoreTU64(n+offNext, uint64(head), slpmt.LogFree)
		tx.StoreT(n+offVal, value, slpmt.LogFree)
		// Write 1 of Figure 1: the only logged pointer update.
		tx.SetRoot(workloads.RootMain, uint64(n))
		if head != 0 {
			// Write 4 of Figure 1: redundant, lazy + log-free.
			tx.StoreTU64(head+offPrev, uint64(n), slpmt.LazyLogFree)
		}
		tx.SetRoot(workloads.RootCount, tx.Root(workloads.RootCount)+1)
		return nil
	})
}

// Get implements workloads.Workload (linear walk).
func (l *List) Get(sys *slpmt.System, key uint64) (val []byte, ok bool) {
	sys.View(func(tx *slpmt.Tx) {
		n := slpmt.Addr(tx.Root(workloads.RootMain))
		for n != 0 {
			if tx.LoadU64(n+offKey) == key {
				val, ok = l.rd.Value(tx, n+offVLen, n+offVal), true
				return
			}
			n = slpmt.Addr(tx.LoadU64(n + offNext))
		}
	})
	return val, ok
}

// UpdateValue implements workloads.Mutable.
func (l *List) UpdateValue(sys *slpmt.System, key uint64, value []byte) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		n := slpmt.Addr(tx.Root(workloads.RootMain))
		for n != 0 {
			if tx.LoadU64(n+offKey) == key {
				if tx.LoadU64(n+offVLen) != uint64(len(value)) {
					return fmt.Errorf("dlist: size-changing update unsupported")
				}
				tx.Store(n+offVal, value)
				return nil
			}
			n = slpmt.Addr(tx.LoadU64(n + offNext))
		}
		return fmt.Errorf("dlist: key %d not found", key)
	})
}

// Delete implements workloads.Mutable: unlinking needs ONE logged store
// (the predecessor's next pointer — or the head slot); the successor's
// prev pointer is again lazy + log-free.
func (l *List) Delete(sys *slpmt.System, key uint64) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		n := slpmt.Addr(tx.Root(workloads.RootMain))
		for n != 0 {
			if tx.LoadU64(n+offKey) != key {
				n = slpmt.Addr(tx.LoadU64(n + offNext))
				continue
			}
			prev := slpmt.Addr(tx.LoadU64(n + offPrev))
			next := slpmt.Addr(tx.LoadU64(n + offNext))
			if prev == 0 {
				tx.SetRoot(workloads.RootMain, uint64(next))
			} else {
				tx.StoreU64(prev+offNext, uint64(next)) // the logged unlink
			}
			if next != 0 {
				tx.StoreTU64(next+offPrev, uint64(prev), slpmt.LazyLogFree)
			}
			tx.SetRoot(workloads.RootCount, tx.Root(workloads.RootCount)-1)
			tx.Free(n)
			return nil
		}
		return fmt.Errorf("dlist: key %d not found", key)
	})
}

// Check implements workloads.Workload (see workloads.Check).
func (l *List) Check(sys *slpmt.System, oracle map[uint64][]byte) error {
	return workloads.Check(sys, l, oracle)
}

// --- Recovery over the durable image -------------------------------

// Recover implements workloads.Recoverable: the Figure 1(d) fix-up —
// rebuild every prev pointer from the (logged, undo-restored) next
// chain.
func (l *List) Recover(img *pmem.Image) error {
	prev := mem.Addr(0)
	steps := 0
	for n := mem.Addr(workloads.ReadRoot(img, workloads.RootMain)); n != 0; n = mem.Addr(img.ReadU64(n + offNext)) {
		if steps++; steps > 1<<22 {
			return fmt.Errorf("dlist recover: cycle suspected")
		}
		if mem.Addr(img.ReadU64(n+offPrev)) != prev {
			img.WriteU64(n+offPrev, uint64(prev))
		}
		prev = n
	}
	return nil
}

// Reach implements workloads.Recoverable.
func (l *List) Reach(img *pmem.Image) ([]txheap.Extent, error) {
	count := workloads.ReadRoot(img, workloads.RootCount)
	out := make([]txheap.Extent, 0, workloads.ReachCap(img, count, offVal))
	for n := mem.Addr(workloads.ReadRoot(img, workloads.RootMain)); n != 0; n = mem.Addr(img.ReadU64(n + offNext)) {
		vlen := img.ReadU64(n + offVLen)
		out = append(out, txheap.Extent{Addr: n, Size: offVal + vlen})
	}
	return out, nil
}

// CheckDurable implements workloads.Recoverable.
func (l *List) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if err := workloads.CheckCount("dlist", workloads.ReadRoot(img, workloads.RootCount), oracle); err != nil {
		return err
	}
	seen := workloads.KeySet()
	defer workloads.PutKeySet(seen)
	prev := mem.Addr(0)
	for n := mem.Addr(workloads.ReadRoot(img, workloads.RootMain)); n != 0; n = mem.Addr(img.ReadU64(n + offNext)) {
		if mem.Addr(img.ReadU64(n+offPrev)) != prev {
			return fmt.Errorf("dlist durable: prev broken at %#x", n)
		}
		k := img.ReadU64(n + offKey)
		want, ok := oracle[k]
		if !ok {
			return fmt.Errorf("dlist durable: unexpected key %d", k)
		}
		if seen[k] {
			return fmt.Errorf("dlist durable: duplicate key %d", k)
		}
		seen[k] = true
		if img.ReadU64(n+offVLen) != uint64(len(want)) || !img.Equal(n+offVal, want) {
			return fmt.Errorf("dlist durable: value mismatch at %d", k)
		}
		prev = n
	}
	if len(seen) != len(oracle) {
		return fmt.Errorf("dlist durable: %d keys, oracle %d", len(seen), len(oracle))
	}
	return nil
}
