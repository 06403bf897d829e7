package kvstore

import (
	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Scan implements workloads.Ranger. Every backend's layout yields keys
// in ascending unsigned order: the btree is sorted; the crit-bit and
// radix trees branch on most-significant bits first, so
// child-0-before-child-1 order is numeric order. Scan dispatches on the
// concrete backend so that its callback stays on the stack.
func (kv *KV) Scan(sys *slpmt.System, from, to uint64, fn func(uint64, []byte) bool) error {
	sys.View(func(tx *slpmt.Tx) {
		visit := func(key uint64, vptr slpmt.Addr) bool {
			return fn(key, kv.rd.Value(tx, vptr+valLen, vptr+valBytes))
		}
		switch idx := kv.idx.(type) {
		case *btree:
			idx.scan(tx, from, to, visit)
		case *ctree:
			idx.scan(tx, from, to, visit)
		case *rtree:
			idx.scan(tx, from, to, visit)
		}
	})
	return nil
}

func (b *btree) scan(tx *slpmt.Tx, from, to uint64, fn func(uint64, slpmt.Addr) bool) {
	stopped := false
	var walk func(x slpmt.Addr)
	walk = func(x slpmt.Addr) {
		if stopped {
			return
		}
		n := int(tx.LoadU64(x + btN))
		leaf := tx.LoadU64(x+btLeaf) == 1
		for i := 0; i <= n && !stopped; i++ {
			if !leaf {
				// Child i covers keys below key[i] (or above key[n-1]
				// for the last child): prune with the separators.
				lo := uint64(0)
				if i > 0 {
					lo = tx.LoadU64(x + btKey(i-1))
				}
				hi := ^uint64(0)
				if i < n {
					hi = tx.LoadU64(x + btKey(i))
				}
				if hi >= from && lo <= to {
					walk(slpmt.Addr(tx.LoadU64(x + btKid(i))))
				}
			}
			if stopped || i == n {
				break
			}
			k := tx.LoadU64(x + btKey(i))
			if k >= from && k <= to {
				if !fn(k, slpmt.Addr(tx.LoadU64(x+btVal(i)))) {
					stopped = true
				}
			}
			if k > to {
				stopped = true
			}
		}
	}
	walk(slpmt.Addr(tx.Root(workloads.RootMain)))
}

func (c *ctree) scan(tx *slpmt.Tx, from, to uint64, fn func(uint64, slpmt.Addr) bool) {
	stopped := false
	var walk func(p uint64)
	walk = func(p uint64) {
		if p == 0 || stopped {
			return
		}
		if ctIsLeaf(p) {
			l := ctUntag(p)
			k := tx.LoadU64(slpmt.Addr(l) + ctLeafKey)
			if k >= from && k <= to {
				if !fn(k, slpmt.Addr(tx.LoadU64(slpmt.Addr(l)+ctLeafVPtr))) {
					stopped = true
				}
			}
			return
		}
		n := slpmt.Addr(ctUntag(p))
		walk(tx.LoadU64(n + ctChild0))
		walk(tx.LoadU64(n + ctChild1))
	}
	walk(tx.Root(workloads.RootMain))
}

func (r *rtree) scan(tx *slpmt.Tx, from, to uint64, fn func(uint64, slpmt.Addr) bool) {
	stopped := false
	var walk func(p uint64)
	walk = func(p uint64) {
		if p == 0 || stopped {
			return
		}
		if rtIsLeaf(p) {
			l := slpmt.Addr(rtUntag(p))
			k := tx.LoadU64(l + rtLeafKey)
			if k >= from && k <= to {
				if !fn(k, slpmt.Addr(tx.LoadU64(l+rtLeafVPtr))) {
					stopped = true
				}
			}
			return
		}
		n := slpmt.Addr(rtUntag(p))
		for i := uint64(0); i < 16 && !stopped; i++ {
			walk(tx.LoadU64(n + rtKid(i)))
		}
	}
	walk(tx.Root(workloads.RootMain))
}
