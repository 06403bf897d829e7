package avl

import (
	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Scan implements workloads.Ranger: an in-order walk pruned to
// [from, to].
func (t *Tree) Scan(sys *slpmt.System, from, to uint64, fn func(uint64, []byte) bool) error {
	stopped := false
	sys.View(func(tx *slpmt.Tx) {
		var walk func(n slpmt.Addr)
		walk = func(n slpmt.Addr) {
			if n == 0 || stopped {
				return
			}
			k := tx.LoadU64(n + offKey)
			if k > from {
				walk(slpmt.Addr(tx.LoadU64(n + offLeft)))
			}
			if stopped {
				return
			}
			if k >= from && k <= to {
				if !fn(k, t.rd.Value(tx, n+offVLen, n+offVal)) {
					stopped = true
					return
				}
			}
			if k < to {
				walk(slpmt.Addr(tx.LoadU64(n + offRight)))
			}
		}
		walk(slpmt.Addr(tx.Root(workloads.RootMain)))
	})
	return nil
}
