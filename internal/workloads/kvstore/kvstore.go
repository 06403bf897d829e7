// Package kvstore implements the paper's exemplary PMDK application
// (Table II): a key-value store engine configurable with different
// indexing data structures — btree, ctree and rtree backends, mirroring
// the libpmemobj map examples the paper evaluates as kv-btree, kv-ctree
// and kv-rtree.
//
// The engine stores values out of line in fresh blocks (log-free,
// Pattern 1) and delegates key indexing to the backend. Backends differ
// in their selective-logging profile exactly as the paper observes:
// ctree creates almost only fresh nodes (highest speedup), btree mixes
// fresh splits with logged in-node shifts, and rtree creates several
// nodes per insert and moves key prefixes around (most traffic
// reduction, diluted by its compute weight).
package kvstore

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Value block layout.
const (
	valLen   = 0
	valBytes = 8
)

// index is a key-to-value-pointer map backend operating on simulated
// persistent memory.
type index interface {
	// setup initializes an empty index inside the given transaction.
	setup(tx *slpmt.Tx)
	// insert maps key to the value-block pointer (fails on duplicates).
	insert(tx *slpmt.Tx, key uint64, vptr slpmt.Addr) error
	// lookup finds the value pointer for key.
	lookup(tx *slpmt.Tx, key uint64) (slpmt.Addr, bool)
	// computeCost is the backend's compute-cycles-per-op knob.
	computeCost() uint64
	// appendNodes appends the index's own node extents in the image to
	// out and returns it.
	appendNodes(out []txheap.Extent, img *pmem.Image) []txheap.Extent
	// maxNodes bounds the node count of a valid index holding count
	// keys; Reach pre-sizes its extent slice with it.
	maxNodes(count uint64) uint64
	// checkDurable verifies backend-specific structural invariants.
	checkDurable(img *pmem.Image) error
	// recover repairs backend-specific log-free/lazy state post-crash.
	recover(img *pmem.Image) error
}

// KV is the key-value store workload with a pluggable index.
type KV struct {
	name string
	idx  index
	rd   workloads.Scratch
}

func init() {
	workloads.Register("kv-btree", func() workloads.Workload {
		return &KV{name: "kv-btree", idx: &btree{}}
	})
	workloads.Register("kv-ctree", func() workloads.Workload {
		return &KV{name: "kv-ctree", idx: &ctree{}}
	})
	workloads.Register("kv-rtree", func() workloads.Workload {
		return &KV{name: "kv-rtree", idx: &rtree{}}
	})
}

// Name implements workloads.Workload.
func (kv *KV) Name() string { return kv.name }

// ComputeCost implements workloads.Workload.
func (kv *KV) ComputeCost() uint64 { return kv.idx.computeCost() }

// Setup implements workloads.Workload.
func (kv *KV) Setup(sys *slpmt.System) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		tx.SetRoot(workloads.RootCount, 0)
		kv.idx.setup(tx)
		return nil
	})
}

// Insert implements workloads.Workload.
func (kv *KV) Insert(sys *slpmt.System, key uint64, value []byte) error {
	return sys.Update(func(tx *slpmt.Tx) error {
		vb := tx.Alloc(valBytes + uint64(len(value)))
		tx.StoreTU64(vb+valLen, uint64(len(value)), slpmt.LogFree)
		tx.StoreT(vb+valBytes, value, slpmt.LogFree)
		if err := kv.idx.insert(tx, key, vb); err != nil {
			return err
		}
		tx.SetRoot(workloads.RootCount, tx.Root(workloads.RootCount)+1)
		return nil
	})
}

// Get implements workloads.Workload.
func (kv *KV) Get(sys *slpmt.System, key uint64) (val []byte, ok bool) {
	sys.View(func(tx *slpmt.Tx) {
		vb, found := kv.idx.lookup(tx, key)
		if !found {
			return
		}
		val, ok = kv.rd.Value(tx, vb+valLen, vb+valBytes), true
	})
	return val, ok
}

// Check implements workloads.Workload (see workloads.Check).
func (kv *KV) Check(sys *slpmt.System, oracle map[uint64][]byte) error {
	return workloads.Check(sys, kv, oracle)
}

// --- Recovery over the durable image -------------------------------

// Recover implements workloads.Recoverable.
func (kv *KV) Recover(img *pmem.Image) error { return kv.idx.recover(img) }

// Reach implements workloads.Recoverable: index nodes plus every
// reachable value block.
func (kv *KV) Reach(img *pmem.Image) ([]txheap.Extent, error) {
	count := workloads.ReadRoot(img, workloads.RootCount)
	out := workloads.ReachBuf(img, kv.idx.maxNodes(count)+count, valBytes)
	out = kv.idx.appendNodes(out, img)
	err := kv.walkDurable(img, func(key uint64, vptr mem.Addr) error {
		vlen := img.ReadU64(vptr + valLen)
		out = append(out, txheap.Extent{Addr: vptr, Size: valBytes + vlen})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walkDurable visits every (key, vptr) pair of the index in the image.
// Each index's walkDurable is called on its concrete type: through an
// interface, fn would escape and every caller's closure would be
// allocated.
func (kv *KV) walkDurable(img *pmem.Image, fn func(key uint64, vptr mem.Addr) error) error {
	switch idx := kv.idx.(type) {
	case *btree:
		return idx.walkDurable(img, fn)
	case *ctree:
		return idx.walkDurable(img, fn)
	case *rtree:
		return idx.walkDurable(img, fn)
	}
	panic(fmt.Sprintf("kvstore: no durable walk for index %T", kv.idx))
}

// CheckDurable implements workloads.Recoverable.
func (kv *KV) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if err := workloads.CheckCount(kv.name, workloads.ReadRoot(img, workloads.RootCount), oracle); err != nil {
		return err
	}
	if err := kv.idx.checkDurable(img); err != nil {
		return err
	}
	seen := workloads.KeySet()
	defer workloads.PutKeySet(seen)
	err := kv.walkDurable(img, func(key uint64, vptr mem.Addr) error {
		want, ok := oracle[key]
		if !ok {
			return fmt.Errorf("%s durable: unexpected key %d", kv.name, key)
		}
		if seen[key] {
			return fmt.Errorf("%s durable: duplicate key %d", kv.name, key)
		}
		seen[key] = true
		vlen := img.ReadU64(vptr + valLen)
		if vlen != uint64(len(want)) {
			return fmt.Errorf("%s durable: key %d vlen %d, want %d", kv.name, key, vlen, len(want))
		}
		if !img.Equal(vptr+valBytes, want) {
			return fmt.Errorf("%s durable: key %d value mismatch", kv.name, key)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(seen) != len(oracle) {
		return fmt.Errorf("%s durable: %d keys, oracle %d", kv.name, len(seen), len(oracle))
	}
	return nil
}
