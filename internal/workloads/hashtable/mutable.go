package hashtable

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/workloads"
)

// UpdateValue implements workloads.Mutable. Same-size updates overwrite
// the value in place with a logged store; size-changing updates splice
// in a fresh replacement node (log-free fields, one logged link).
func (t *Table) UpdateValue(sys *slpmt.System, key uint64, value []byte) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		t.releaseStash(sys, tx)
		prevAddr, n, err := t.find(tx, key)
		if err != nil {
			return err
		}
		vlen := tx.LoadU64(n + offVLen)
		if vlen == uint64(len(value)) {
			tx.Store(n+offVal, value)
			return nil
		}
		// Replacement node (Pattern 1: all log-free).
		repl := tx.Alloc(offVal + uint64(len(value)))
		tx.StoreTU64(repl+offKey, key, slpmt.LogFree)
		tx.CopyU64(repl+offNext, n+offNext, slpmt.LogFree)
		tx.StoreTU64(repl+offVLen, uint64(len(value)), slpmt.LogFree)
		tx.StoreT(repl+offVal, value, slpmt.LogFree)
		tx.StoreU64(prevAddr, uint64(repl)) // logged splice
		tx.Free(n)
		return nil
	})
}

// Delete implements workloads.Mutable: one logged unlink, the node's
// memory quarantined until commit.
func (t *Table) Delete(sys *slpmt.System, key uint64) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		t.releaseStash(sys, tx)
		prevAddr, n, err := t.find(tx, key)
		if err != nil {
			return err
		}
		next := tx.LoadU64(n + offNext)
		tx.StoreU64(prevAddr, next)
		tx.SetRoot(workloads.RootCount, tx.Root(workloads.RootCount)-1)
		tx.Free(n)
		return nil
	})
}

// find locates key's node and the address of the pointer that links it
// (bucket-head slot or predecessor's next field).
func (t *Table) find(tx *slpmt.Tx, key uint64) (prevAddr, node slpmt.Addr, err error) {
	arr := slpmt.Addr(tx.Root(workloads.RootMain))
	nb := tx.Root(workloads.RootMeta)
	prevAddr = arr + slpmt.Addr(8*(hash(key)%nb))
	n := slpmt.Addr(tx.LoadU64(prevAddr))
	for n != 0 {
		if tx.LoadU64(n+offKey) == key {
			return prevAddr, n, nil
		}
		prevAddr = n + offNext
		n = slpmt.Addr(tx.LoadU64(prevAddr))
	}
	return 0, 0, fmt.Errorf("hashtable: key %d not found", key)
}
