// Package binheap implements the paper's max-heap kernel (Table II): a
// binary max-heap whose entries live in one persistent array, with
// values stored out of line.
//
// Annotation discipline (§IV):
//
//   - the new entry's slot (one past the current size) and the fresh
//     value block are log-free: if the transaction is undone, the
//     logged size field hides the slot again (Pattern 1's "stores whose
//     effects are cancelled by other logged data");
//   - array growth copies the live entries into a fresh, double-sized
//     array without touching the old one — the lazy move pattern
//     (Pattern 2), guarded by the RootMoveSrc protocol. Growth runs in
//     its own transaction so the sift-up of a later insert never
//     modifies a destination the recovery re-copy could clobber;
//   - sift-up shifts are plain logged stores (their sources are
//     overwritten in the same transaction, so they are not safely
//     recoverable without a log).
package binheap

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Entry layout (16 bytes in the array).
const (
	entKey  = 0
	entVPtr = 8
	entSize = 16
)

// Value block layout.
const (
	valLen   = 0
	valBytes = 8
)

const initialCap = 16

func init() {
	workloads.Register("heap", func() workloads.Workload { return New() })
}

// Heap is the max-heap workload.
type Heap struct {
	stashArr   slpmt.Addr
	stashArrSz uint64
	rd         workloads.Scratch
}

// New returns a fresh heap workload.
func New() *Heap { return &Heap{} }

// Name implements workloads.Workload.
func (h *Heap) Name() string { return "heap" }

// ComputeCost implements workloads.Workload.
func (h *Heap) ComputeCost() uint64 { return 1 }

// Setup implements workloads.Workload.
func (h *Heap) Setup(sys *slpmt.System) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		arr := tx.Alloc(initialCap * entSize)
		tx.SetRoot(workloads.RootMain, uint64(arr))
		tx.SetRoot(workloads.RootMeta, initialCap)
		tx.SetRoot(workloads.RootCount, 0)
		tx.SetRoot(workloads.RootMoveSrc, 0)
		tx.SetRoot(workloads.RootAux, 0)
		return nil
	})
}

func slot(arr slpmt.Addr, i uint64) slpmt.Addr { return arr + slpmt.Addr(i*entSize) }

func (h *Heap) releaseStash(tx *slpmt.Tx) {
	if h.stashArr == 0 {
		return
	}
	// Clearing RootMoveSrc stores to the growth transaction's working
	// set, so the hardware drains the lazy copies before proceeding.
	tx.SetRoot(workloads.RootMoveSrc, 0)
	tx.SetRoot(workloads.RootAux, 0)
	tx.Free(h.stashArr)
	h.stashArr = 0
	h.stashArrSz = 0
}

// Insert implements workloads.Workload. Growth (when needed) runs as a
// separate durable transaction before the insert transaction.
func (h *Heap) Insert(sys *slpmt.System, key uint64, value []byte) error {
	needGrow := false
	sys.View(func(tx *slpmt.Tx) {
		needGrow = tx.Root(workloads.RootCount) == tx.Root(workloads.RootMeta)
	})
	if needGrow {
		if err := sys.Update(func(tx *slpmt.Tx) error {
			h.releaseStash(tx)
			h.grow(tx)
			return nil
		}); err != nil {
			return err
		}
	}
	return sys.Update(func(tx *slpmt.Tx) error {
		h.releaseStash(tx)

		arr := slpmt.Addr(tx.Root(workloads.RootMain))
		size := tx.Root(workloads.RootCount)

		// Fresh value block: log-free.
		vb := tx.Alloc(valBytes + uint64(len(value)))
		tx.StoreTU64(vb+valLen, uint64(len(value)), slpmt.LogFree)
		tx.StoreT(vb+valBytes, value, slpmt.LogFree)

		// Sift the parents down along the insertion path, then place
		// the new entry once.
		i := size
		first := true
		for i > 0 {
			p := (i - 1) / 2
			pk := tx.LoadU64(slot(arr, p) + entKey)
			if pk >= key {
				break
			}
			attr := slpmt.Plain
			if first {
				// Destination is the end slot, invisible until the
				// logged size update commits.
				attr = slpmt.LogFree
			}
			tx.Copy(slot(arr, i), slot(arr, p), entSize, attr)
			i = p
			first = false
		}
		attr := slpmt.Plain
		if first {
			attr = slpmt.LogFree
		}
		tx.StoreTU64(slot(arr, i)+entKey, key, attr)
		tx.StoreTU64(slot(arr, i)+entVPtr, uint64(vb), attr)
		tx.SetRoot(workloads.RootCount, size+1)
		return nil
	})
}

// grow doubles the array by lazily copying the entries into a fresh
// allocation (Pattern 2), publishing the old array for recovery.
func (h *Heap) grow(tx *slpmt.Tx) {
	arr := slpmt.Addr(tx.Root(workloads.RootMain))
	capn := tx.Root(workloads.RootMeta)
	size := tx.Root(workloads.RootCount)

	newArr := tx.Alloc(capn * 2 * entSize)
	if size > 0 {
		tx.Copy(newArr, arr, int(size*entSize), slpmt.LazyLogFree)
	}
	h.stashArr = arr
	h.stashArrSz = capn * entSize

	tx.SetRoot(workloads.RootMain, uint64(newArr))
	tx.SetRoot(workloads.RootMeta, capn*2)
	tx.SetRoot(workloads.RootMoveSrc, uint64(arr))
	tx.SetRoot(workloads.RootAux, capn)
}

// Get implements workloads.Workload (linear scan; the heap is not a
// search structure — Get exists for oracle verification).
func (h *Heap) Get(sys *slpmt.System, key uint64) (val []byte, ok bool) {
	sys.View(func(tx *slpmt.Tx) {
		arr := slpmt.Addr(tx.Root(workloads.RootMain))
		size := tx.Root(workloads.RootCount)
		for i := uint64(0); i < size; i++ {
			if tx.LoadU64(slot(arr, i)+entKey) == key {
				vb := slpmt.Addr(tx.LoadU64(slot(arr, i) + entVPtr))
				val, ok = h.rd.Value(tx, vb+valLen, vb+valBytes), true
				return
			}
		}
	})
	return val, ok
}

// Check implements workloads.Workload (see workloads.Check).
func (h *Heap) Check(sys *slpmt.System, oracle map[uint64][]byte) error {
	return workloads.Check(sys, h, oracle)
}

// --- Recovery over the durable image -------------------------------

// Recover implements workloads.Recoverable: re-executes an in-flight
// array growth from the intact old array.
func (h *Heap) Recover(img *pmem.Image) error {
	oldArr := mem.Addr(workloads.ReadRoot(img, workloads.RootMoveSrc))
	if oldArr == 0 {
		return nil
	}
	oldCap := workloads.ReadRoot(img, workloads.RootAux)
	newArr := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	size := workloads.ReadRoot(img, workloads.RootCount)
	if size > oldCap {
		return fmt.Errorf("heap recover: size %d exceeds old capacity %d", size, oldCap)
	}
	buf := make([]byte, size*entSize)
	img.Read(oldArr, buf)
	img.Write(newArr, buf)
	workloads.WriteRoot(img, workloads.RootMoveSrc, 0)
	workloads.WriteRoot(img, workloads.RootAux, 0)
	return nil
}

// Reach implements workloads.Recoverable.
func (h *Heap) Reach(img *pmem.Image) ([]txheap.Extent, error) {
	arr := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	capn := workloads.ReadRoot(img, workloads.RootMeta)
	size := workloads.ReadRoot(img, workloads.RootCount)
	if arr == 0 || capn == 0 {
		return nil, fmt.Errorf("heap reach: no array")
	}
	// The array and one value block per entry.
	out := workloads.ReachBuf(img, min(size, capn)+1, valBytes)
	out = append(out, txheap.Extent{Addr: arr, Size: capn * entSize})
	for i := uint64(0); i < size; i++ {
		vb := mem.Addr(img.ReadU64(arr + mem.Addr(i*entSize) + entVPtr))
		vlen := img.ReadU64(vb + valLen)
		out = append(out, txheap.Extent{Addr: vb, Size: valBytes + vlen})
	}
	return out, nil
}

// CheckDurable implements workloads.Recoverable.
func (h *Heap) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	size := workloads.ReadRoot(img, workloads.RootCount)
	if err := workloads.CheckCount("heap", size, oracle); err != nil {
		return err
	}
	arr := mem.Addr(workloads.ReadRoot(img, workloads.RootMain))
	seen := workloads.KeySet()
	defer workloads.PutKeySet(seen)
	for i := uint64(0); i < size; i++ {
		e := arr + mem.Addr(i*entSize)
		k := img.ReadU64(e + entKey)
		if seen[k] {
			return fmt.Errorf("heap durable: duplicate key %d", k)
		}
		seen[k] = true
		if i > 0 {
			p := (i - 1) / 2
			if img.ReadU64(arr+mem.Addr(p*entSize)+entKey) < k {
				return fmt.Errorf("heap durable: order violation at index %d", i)
			}
		}
		want, ok := oracle[k]
		if !ok {
			return fmt.Errorf("heap durable: unexpected key %d", k)
		}
		vb := mem.Addr(img.ReadU64(e + entVPtr))
		vlen := img.ReadU64(vb + valLen)
		if vlen != uint64(len(want)) {
			return fmt.Errorf("heap durable: key %d vlen %d, want %d", k, vlen, len(want))
		}
		if !img.Equal(vb+valBytes, want) {
			return fmt.Errorf("heap durable: key %d value mismatch", k)
		}
	}
	return nil
}
