package kvstore

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
)

// rtree is a 16-way radix tree over the key's nibbles (most significant
// first) with path compression, mirroring the libpmemobj rtree_map
// example. Leaf pointers are tagged with bit 0.
//
// Annotation profile: inserts frequently create several fresh nodes at
// once (leaf, branch node, and — on a prefix split — a replacement for
// the shortened node), matching the paper's observation that "kv-rtree
// may create more than one node in one insertion operation", giving it
// the suite's largest write-traffic reduction. Prefix splits move key
// nibbles into fresh nodes by copy-on-write, so the moves are log-free;
// the structure's heavy nibble arithmetic is modelled by a high compute
// cost, which dilutes the speedup exactly as in Figure 14.
type rtree struct{}

// Internal node layout.
const (
	rtPLen   = 0   // number of compressed prefix nibbles (0..15)
	rtPrefix = 8   // packed nibbles, most significant first
	rtKids   = 16  // 16 children (tagged pointers), 128 bytes
	rtSize   = 144 // total
)

// Leaf layout (shared shape with ctree's leaf).
const (
	rtLeafKey  = 0
	rtLeafVPtr = 8
	rtLeafSize = 16
)

const rtNibbles = 16 // nibbles in a 64-bit key

func rtIsLeaf(p uint64) bool    { return p&1 == 1 }
func rtUntag(p uint64) mem.Addr { return mem.Addr(p &^ 1) }
func rtTag(a slpmt.Addr) uint64 { return uint64(a) | 1 }

// nib extracts the i-th nibble of key (0 = most significant).
func nib(key uint64, i int) uint64 { return (key >> uint(60-4*i)) & 0xF }

// prefixNib extracts the j-th nibble of a packed prefix word.
func prefixNib(prefix uint64, j int) uint64 { return (prefix >> uint(60-4*j)) & 0xF }

// packPrefix packs nibbles[0..n) of key starting at nibble index from.
func packPrefix(key uint64, from, n int) uint64 {
	var p uint64
	for j := 0; j < n; j++ {
		p |= nib(key, from+j) << uint(60-4*j)
	}
	return p
}

// shiftPrefix drops the first k nibbles of a packed prefix.
func shiftPrefix(prefix uint64, k int) uint64 { return prefix << uint(4*k) }

func (r *rtree) computeCost() uint64 { return 80 }

func (r *rtree) setup(tx *slpmt.Tx) {
	tx.SetRoot(workloads.RootMain, 0)
}

func (r *rtree) newLeaf(tx *slpmt.Tx, key uint64, vptr slpmt.Addr) slpmt.Addr {
	l := tx.Alloc(rtLeafSize)
	tx.StoreTU64(l+rtLeafKey, key, slpmt.LogFree)
	tx.StoreTU64(l+rtLeafVPtr, uint64(vptr), slpmt.LogFree)
	return l
}

// newNode allocates a zeroed internal node (log-free).
func (r *rtree) newNode(tx *slpmt.Tx, plen int, prefix uint64) slpmt.Addr {
	n := tx.Alloc(rtSize)
	zeros := make([]byte, rtSize)
	tx.StoreT(n, zeros, slpmt.LogFree)
	if plen > 0 {
		tx.StoreTU64(n+rtPLen, uint64(plen), slpmt.LogFree)
		tx.StoreTU64(n+rtPrefix, prefix, slpmt.LogFree)
	}
	return n
}

func rtKid(i uint64) slpmt.Addr { return slpmt.Addr(rtKids + 8*i) }

// setEdge writes the pointer that splices a new subtree in: a logged
// store for existing parents, the root slot otherwise.
func (r *rtree) setEdge(tx *slpmt.Tx, parent slpmt.Addr, slot uint64, p uint64, fresh bool) {
	switch {
	case parent == 0:
		tx.SetRoot(workloads.RootMain, p)
	case fresh:
		tx.StoreTU64(parent+rtKid(slot), p, slpmt.LogFree)
	default:
		tx.StoreU64(parent+rtKid(slot), p)
	}
}

func (r *rtree) insert(tx *slpmt.Tx, key uint64, vptr slpmt.Addr) error {
	var parent slpmt.Addr
	var pslot uint64
	parentFresh := false
	p := tx.Root(workloads.RootMain)
	depth := 0 // nibbles of key consumed so far

	for {
		if p == 0 {
			leaf := r.newLeaf(tx, key, vptr)
			r.setEdge(tx, parent, pslot, rtTag(leaf), parentFresh)
			return nil
		}
		if rtIsLeaf(p) {
			other := tx.LoadU64(rtUntag(p) + rtLeafKey)
			if other == key {
				return fmt.Errorf("rtree: duplicate key %d", key)
			}
			// Branch at the first differing nibble >= depth.
			m := depth
			for nib(key, m) == nib(other, m) {
				m++
			}
			br := r.newNode(tx, m-depth, packPrefix(key, depth, m-depth))
			leaf := r.newLeaf(tx, key, vptr)
			tx.StoreTU64(br+rtKid(nib(key, m)), rtTag(leaf), slpmt.LogFree)
			tx.StoreTU64(br+rtKid(nib(other, m)), p, slpmt.LogFree)
			r.setEdge(tx, parent, pslot, uint64(br), parentFresh)
			return nil
		}

		n := slpmt.Addr(rtUntag(p))
		plen := int(tx.LoadU64(n + rtPLen))
		prefix := tx.LoadU64(n + rtPrefix)
		// Match the compressed prefix.
		m := 0
		for m < plen && nib(key, depth+m) == prefixNib(prefix, m) {
			m++
		}
		if m < plen {
			// Prefix split: fresh branch node above, and a
			// copy-on-write replacement of n with the shortened suffix
			// (the "key movement" of the paper — moved into fresh
			// memory, so log-free; the intact original backs recovery
			// until the logged splice commits).
			br := r.newNode(tx, m, packPrefix(key, depth, m))
			leaf := r.newLeaf(tx, key, vptr)
			rep := r.newNode(tx, plen-m-1, shiftPrefix(prefix, m+1))
			for i := uint64(0); i < 16; i++ {
				tx.CopyU64(rep+rtKid(i), n+rtKid(i), slpmt.LogFree)
			}
			tx.StoreTU64(br+rtKid(nib(key, depth+m)), rtTag(leaf), slpmt.LogFree)
			tx.StoreTU64(br+rtKid(prefixNib(prefix, m)), uint64(rep), slpmt.LogFree)
			r.setEdge(tx, parent, pslot, uint64(br), parentFresh)
			tx.Free(n) // quarantined until commit
			return nil
		}
		depth += plen
		slot := nib(key, depth)
		depth++
		parent = n
		pslot = slot
		parentFresh = false
		p = tx.LoadU64(n + rtKid(slot))
	}
}

func (r *rtree) lookup(tx *slpmt.Tx, key uint64) (slpmt.Addr, bool) {
	p := tx.Root(workloads.RootMain)
	depth := 0
	for {
		if p == 0 {
			return 0, false
		}
		if rtIsLeaf(p) {
			l := slpmt.Addr(rtUntag(p))
			if tx.LoadU64(l+rtLeafKey) != key {
				return 0, false
			}
			return slpmt.Addr(tx.LoadU64(l + rtLeafVPtr)), true
		}
		n := slpmt.Addr(rtUntag(p))
		plen := int(tx.LoadU64(n + rtPLen))
		prefix := tx.LoadU64(n + rtPrefix)
		for m := 0; m < plen; m++ {
			if nib(key, depth+m) != prefixNib(prefix, m) {
				return 0, false
			}
		}
		depth += plen
		p = tx.LoadU64(n + rtKid(nib(key, depth)))
		depth++
	}
}

func (r *rtree) recover(img *pmem.Image) error { return nil }

func (r *rtree) walkDurable(img *pmem.Image, fn func(uint64, mem.Addr) error) error {
	var walk func(p uint64) error
	walk = func(p uint64) error {
		if p == 0 {
			return nil
		}
		if rtIsLeaf(p) {
			l := rtUntag(p)
			return fn(img.ReadU64(l+rtLeafKey), mem.Addr(img.ReadU64(l+rtLeafVPtr)))
		}
		n := rtUntag(p)
		for i := uint64(0); i < 16; i++ {
			if err := walk(img.ReadU64(n + mem.Addr(rtKid(i)))); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(workloads.ReadRoot(img, workloads.RootMain))
}

func (r *rtree) nodesDurable(img *pmem.Image) ([]txheap.Extent, error) {
	var out []txheap.Extent
	var walk func(p uint64) error
	walk = func(p uint64) error {
		if p == 0 {
			return nil
		}
		if rtIsLeaf(p) {
			out = append(out, txheap.Extent{Addr: rtUntag(p), Size: rtLeafSize})
			return nil
		}
		n := rtUntag(p)
		out = append(out, txheap.Extent{Addr: n, Size: rtSize})
		for i := uint64(0); i < 16; i++ {
			if err := walk(img.ReadU64(n + mem.Addr(rtKid(i)))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(workloads.ReadRoot(img, workloads.RootMain)); err != nil {
		return nil, err
	}
	return out, nil
}

// checkDurable verifies that every leaf's key matches the nibble path
// and prefix chain leading to it.
func (r *rtree) checkDurable(img *pmem.Image) error {
	var walk func(p uint64, depth int, acc uint64) error
	walk = func(p uint64, depth int, acc uint64) error {
		if p == 0 {
			return nil
		}
		if rtIsLeaf(p) {
			key := img.ReadU64(rtUntag(p) + rtLeafKey)
			// The consumed nibbles must match the key's top nibbles.
			for j := 0; j < depth; j++ {
				if nib(key, j) != nib(acc, j) {
					return fmt.Errorf("rtree durable: key %#x under wrong path at nibble %d", key, j)
				}
			}
			return nil
		}
		n := rtUntag(p)
		plen := int(img.ReadU64(n + rtPLen))
		if depth+plen >= rtNibbles {
			return fmt.Errorf("rtree durable: prefix overruns key length at depth %d", depth)
		}
		prefix := img.ReadU64(n + rtPrefix)
		acc2 := acc
		for m := 0; m < plen; m++ {
			acc2 |= prefixNib(prefix, m) << uint(60-4*(depth+m))
		}
		kids := 0
		for i := uint64(0); i < 16; i++ {
			ch := img.ReadU64(n + mem.Addr(rtKid(i)))
			if ch == 0 {
				continue
			}
			kids++
			acc3 := acc2 | (i << uint(60-4*(depth+plen)))
			if err := walk(ch, depth+plen+1, acc3); err != nil {
				return err
			}
		}
		if kids < 2 {
			return fmt.Errorf("rtree durable: under-populated branch (%d children) at depth %d", kids, depth)
		}
		return nil
	}
	return walk(workloads.ReadRoot(img, workloads.RootMain), 0, 0)
}
