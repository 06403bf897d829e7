// Package hashtable implements the paper's chained hash table kernel
// (Table II): it resizes when the table averages three records per
// bucket.
//
// Annotation discipline (§IV):
//
//   - all fields of a freshly allocated node are log-free (Pattern 1);
//   - the rehash moves records by copying every node into a new chain
//     without modifying the originals, so the copies and the new bucket
//     array are lazily persistent (Pattern 2) — the pattern the paper
//     singles out as the hashtable's main lazy-persistency win (§VI-D1);
//   - bucket-head link updates and the count are plain logged stores.
//
// The rehash is guarded by the RootMoveSrc protocol: the old array
// pointer is published (logged) by the resize transaction and cleared
// (logged) by the next transaction before the old nodes may be freed.
// Clearing it stores to a line in the resize transaction's working set,
// so the hardware's signature check forces the lazy copies durable
// first — recovery can therefore always rebuild the new table from the
// old chains while RootMoveSrc is set.
package hashtable

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
	offNext = 8
	offVLen = 16
	offVal  = 24
)

const initialBuckets = 8

// maxLoad is the resize threshold: average records per bucket.
const maxLoad = 3

func init() {
	workloads.Register("hashtable", func() workloads.Workload { return New() })
}

// Table is the chained hash table workload.
type Table struct {
	// stash holds the pre-rehash nodes and array awaiting release; they
	// are freed (and RootMoveSrc cleared) at the start of the next
	// transaction.
	stashNodes []slpmt.Addr
	stashArr   slpmt.Addr
	stashArrSz uint64
	rd         workloads.Scratch
}

// New returns a fresh hashtable workload.
func New() *Table { return &Table{} }

// Name implements workloads.Workload.
func (t *Table) Name() string { return "hashtable" }

// ComputeCost implements workloads.Workload.
func (t *Table) ComputeCost() uint64 { return 1 }

func hash(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return key
}

// Setup implements workloads.Workload.
func (t *Table) Setup(sys *slpmt.System) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		arr := tx.Alloc(initialBuckets * 8)
		zeros := make([]byte, initialBuckets*8)
		tx.StoreT(arr, zeros, slpmt.LogFree)
		tx.SetRoot(workloads.RootMain, uint64(arr))
		tx.SetRoot(workloads.RootMeta, initialBuckets)
		tx.SetRoot(workloads.RootCount, 0)
		tx.SetRoot(workloads.RootMoveSrc, 0)
		tx.SetRoot(workloads.RootAux, 0)
		return nil
	})
}

// Insert implements workloads.Workload: one durable transaction adding
// the pair and, at the load threshold, rehashing into a doubled table.
func (t *Table) Insert(sys *slpmt.System, key uint64, value []byte) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		t.releaseStash(tx)

		arr := slpmt.Addr(tx.Root(workloads.RootMain))
		nb := tx.Root(workloads.RootMeta)
		count := tx.Root(workloads.RootCount)

		b := hash(key) % nb
		head := tx.LoadU64(arr + slpmt.Addr(8*b))

		node := tx.Alloc(offVal + uint64(len(value)))
		tx.StoreTU64(node+offKey, key, slpmt.LogFree)
		tx.StoreTU64(node+offNext, head, slpmt.LogFree)
		tx.StoreTU64(node+offVLen, uint64(len(value)), slpmt.LogFree)
		tx.StoreT(node+offVal, value, slpmt.LogFree)

		tx.StoreU64(arr+slpmt.Addr(8*b), uint64(node)) // link: logged
		count++
		tx.SetRoot(workloads.RootCount, count)

		if count > maxLoad*nb {
			t.rehash(tx, arr, nb)
		}
		return nil
	})
}

// releaseStash frees the previous rehash's source nodes and clears the
// recovery pointer. The logged store to RootMoveSrc hits the resize
// transaction's working-set signature, forcing the lazy copies to PM
// before the sources become reusable.
func (t *Table) releaseStash(tx *slpmt.Tx) {
	if t.stashArr == 0 {
		return
	}
	tx.SetRoot(workloads.RootMoveSrc, 0)
	tx.SetRoot(workloads.RootAux, 0)
	for _, n := range t.stashNodes {
		tx.Free(n)
	}
	tx.Free(t.stashArr)
	t.stashNodes = t.stashNodes[:0]
	t.stashArr = 0
	t.stashArrSz = 0
}

// rehash doubles the table by copying every node into new chains
// (Pattern 2 lazy moves), keeping the old array and nodes intact for
// crash recovery.
func (t *Table) rehash(tx *slpmt.Tx, oldArr slpmt.Addr, oldN uint64) {
	newN := oldN * 2
	newArr := tx.Alloc(newN * 8)
	zeros := make([]byte, newN*8)
	tx.StoreT(newArr, zeros, slpmt.LazyLogFree)

	for b := uint64(0); b < oldN; b++ {
		n := slpmt.Addr(tx.LoadU64(oldArr + slpmt.Addr(8*b)))
		for n != 0 {
			key := tx.LoadU64(n + offKey)
			vlen := tx.LoadU64(n + offVLen)
			next := slpmt.Addr(tx.LoadU64(n + offNext))

			cp := tx.Alloc(offVal + vlen)
			// Move without modifying the source: lazily persistent.
			tx.CopyU64(cp+offKey, n+offKey, slpmt.LazyLogFree)
			tx.CopyU64(cp+offVLen, n+offVLen, slpmt.LazyLogFree)
			tx.Copy(cp+offVal, n+offVal, int(vlen), slpmt.LazyLogFree)
			nb := hash(key) % newN
			headAddr := newArr + slpmt.Addr(8*nb)
			tx.CopyU64(cp+offNext, headAddr, slpmt.LazyLogFree)
			tx.StoreTU64(headAddr, uint64(cp), slpmt.LazyLogFree)

			t.stashNodes = append(t.stashNodes, n)
			n = next
		}
	}
	t.stashArr = oldArr
	t.stashArrSz = oldN * 8

	// Publish the new table and the recovery pointer (logged).
	tx.SetRoot(workloads.RootMain, uint64(newArr))
	tx.SetRoot(workloads.RootMeta, newN)
	tx.SetRoot(workloads.RootMoveSrc, uint64(oldArr))
	tx.SetRoot(workloads.RootAux, oldN)
}

// Get implements workloads.Workload.
func (t *Table) Get(sys *slpmt.System, key uint64) (val []byte, ok bool) {
	sys.View(func(tx *slpmt.Tx) {
		arr := slpmt.Addr(tx.Root(workloads.RootMain))
		nb := tx.Root(workloads.RootMeta)
		n := slpmt.Addr(tx.LoadU64(arr + slpmt.Addr(8*(hash(key)%nb))))
		for n != 0 {
			if tx.LoadU64(n+offKey) == key {
				val, ok = t.rd.Value(tx, n+offVLen, n+offVal), true
				return
			}
			n = slpmt.Addr(tx.LoadU64(n + offNext))
		}
	})
	return val, ok
}

// Check implements workloads.Workload (see workloads.Check).
func (t *Table) Check(sys *slpmt.System, oracle map[uint64][]byte) error {
	return workloads.Check(sys, t, oracle)
}

// --- Recovery over the durable image -------------------------------

// Recover implements workloads.Recoverable: if a rehash was in flight
// (RootMoveSrc set), rebuild the new table by relinking the intact old
// nodes; the lazy copies become garbage for the collector.
func (t *Table) Recover(img *pmem.Image) error {
	oldArr := mem.Addr(workloads.ReadRoot(img, workloads.RootMoveSrc))
	if oldArr == 0 {
		return nil
	}
	oldN := workloads.ReadRoot(img, workloads.RootAux)
	newArr := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	newN := workloads.ReadRoot(img, workloads.RootMeta)
	if newN == 0 || oldN == 0 || newArr == 0 {
		return fmt.Errorf("hashtable recover: inconsistent roots (old=%#x/%d new=%#x/%d)",
			oldArr, oldN, newArr, newN)
	}
	// Wipe the new array, then re-execute the move by relinking the old
	// nodes directly (deterministic, idempotent).
	for b := uint64(0); b < newN; b++ {
		img.WriteU64(newArr+mem.Addr(8*b), 0)
	}
	for b := uint64(0); b < oldN; b++ {
		n := mem.Addr(img.ReadU64(oldArr + mem.Addr(8*b)))
		for n != 0 {
			next := mem.Addr(img.ReadU64(n + offNext))
			key := img.ReadU64(n + offKey)
			nb := hash(key) % newN
			head := img.ReadU64(newArr + mem.Addr(8*nb))
			img.WriteU64(n+offNext, head)
			img.WriteU64(newArr+mem.Addr(8*nb), uint64(n))
			n = next
		}
	}
	workloads.WriteRoot(img, workloads.RootMoveSrc, 0)
	workloads.WriteRoot(img, workloads.RootAux, 0)
	return nil
}

// Reach implements workloads.Recoverable.
func (t *Table) Reach(img *pmem.Image) ([]txheap.Extent, error) {
	arr := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	nb := workloads.ReadRoot(img, workloads.RootMeta)
	if arr == 0 || nb == 0 {
		return nil, fmt.Errorf("hashtable reach: no table")
	}
	// The bucket array and one node per counted key.
	count := workloads.ReadRoot(img, workloads.RootCount)
	out := make([]txheap.Extent, 0, workloads.ReachCap(img, count+1, offVal))
	out = append(out, txheap.Extent{Addr: arr, Size: nb * 8})
	for b := uint64(0); b < nb; b++ {
		n := mem.Addr(img.ReadU64(arr + mem.Addr(8*b)))
		for n != 0 {
			vlen := img.ReadU64(n + offVLen)
			out = append(out, txheap.Extent{Addr: n, Size: offVal + vlen})
			n = mem.Addr(img.ReadU64(n + offNext))
		}
	}
	return out, nil
}

// CheckDurable implements workloads.Recoverable.
func (t *Table) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if err := workloads.CheckCount("hashtable", workloads.ReadRoot(img, workloads.RootCount), oracle); err != nil {
		return err
	}
	arr := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	nb := workloads.ReadRoot(img, workloads.RootMeta)
	if nb == 0 {
		return fmt.Errorf("hashtable durable: zero buckets")
	}
	seen := workloads.KeySet()
	defer workloads.PutKeySet(seen)
	for b := uint64(0); b < nb; b++ {
		n := mem.Addr(img.ReadU64(arr + mem.Addr(8*b)))
		for n != 0 {
			key := img.ReadU64(n + offKey)
			if hash(key)%nb != b {
				return fmt.Errorf("hashtable durable: key %d in wrong bucket", key)
			}
			want, inOracle := oracle[key]
			if !inOracle {
				return fmt.Errorf("hashtable durable: unexpected key %d", key)
			}
			vlen := img.ReadU64(n + offVLen)
			if vlen != uint64(len(want)) {
				return fmt.Errorf("hashtable durable: key %d vlen %d, want %d", key, vlen, len(want))
			}
			if !img.Equal(n+offVal, want) {
				return fmt.Errorf("hashtable durable: key %d value mismatch", key)
			}
			if seen[key] {
				return fmt.Errorf("hashtable durable: duplicate key %d", key)
			}
			seen[key] = true
			n = mem.Addr(img.ReadU64(n + offNext))
		}
	}
	if len(seen) != len(oracle) {
		return fmt.Errorf("hashtable durable: %d keys, oracle %d", len(seen), len(oracle))
	}
	return nil
}
