// Package workloads defines the benchmark interface the evaluation
// drives (Table II of the paper) and a registry of the six durable data
// structures: four STAMP-style kernels (hashtable, rbtree, heap, avl)
// and the PMDK-style key-value store with btree/ctree/rtree backends.
//
// Every workload is written against the public slpmt API with the
// paper's annotation discipline (§IV):
//
//   - stores into memory allocated by the current transaction are
//     log-free (Pattern 1);
//   - data moved without modifying the source is lazily persistent
//     (Pattern 2), guarded by the root-slot protocol described in the
//     structures' recovery code;
//   - everything else is a plain logged store.
//
// Workloads also implement the recovery side: a reachability walk over
// the durable image (for the post-crash heap rebuild / leak collection)
// and a structure-specific fix-up that repairs log-free and lazy data
// after the undo log has been applied.
package workloads

import (
	"errors"
	"fmt"
	"sort"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/freelist"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// Workload is one durable data structure under test. Implementations
// hold only volatile bookkeeping; all durable state lives in the
// system's persistent memory, reachable from root slots. An instance
// serves one goroutine at a time (Cluster.Interleave runs every core on
// one goroutine).
type Workload interface {
	// Name returns the benchmark name used in reports.
	Name() string
	// Setup initializes an empty structure (runs transactions).
	Setup(sys *slpmt.System) error
	// Insert adds one key/value pair in one durable transaction.
	Insert(sys *slpmt.System, key uint64, value []byte) error
	// Get looks the key up through the volatile view. The value is a
	// view of the instance's read buffer (see Scratch.Value): valid
	// until the next call on the instance, so a caller that keeps it
	// must copy it.
	Get(sys *slpmt.System, key uint64) ([]byte, bool)
	// Check verifies the volatile structure against an oracle of every
	// inserted pair plus the structure's own invariants: CheckDurable
	// over a view of the volatile memory, then Get for every oracle
	// pair (the package-level Check).
	Check(sys *slpmt.System, oracle map[uint64][]byte) error
	// ComputeCost is the workload's suggested compute-cycles-per-op
	// knob, modelling its non-memory work relative to the others.
	ComputeCost() uint64
}

// Recoverable is implemented by workloads that support the crash /
// recovery campaign.
type Recoverable interface {
	// Recover repairs the structure in a durable image after a crash:
	// the undo log has already been applied by the driver; Recover
	// fixes log-free and lazily-persistent data (Pattern 1/2 recovery).
	Recover(img *pmem.Image) error
	// Reach returns every heap extent reachable from the structure's
	// roots in the image — the mark phase of the leak collector. The
	// slice comes from ReachBuf and belongs to the caller, which may
	// keep it. Recovery drops it once the heap is rebuilt, so it hands
	// it back with PutReach for the next scan to reuse.
	Reach(img *pmem.Image) ([]txheap.Extent, error)
	// CheckDurable verifies the structure in the image against the
	// oracle of transactions known committed at the crash point: the
	// structure's invariants, every key and value, no duplicates, and
	// the count. The count is the RootCount root, compared first with
	// CheckCount, so an oracle of another size never passes; a crash
	// campaign relies on that to skip such candidates unchecked. It is
	// the structure's only checker; Check runs it over a read-only view
	// of the volatile memory.
	CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error
}

// Check is every structure's Workload.Check: w's CheckDurable over a
// view of sys's volatile memory, which copies nothing and simulates no
// load, then CheckOracle, so the Get path is exercised too.
func Check(sys *slpmt.System, w interface {
	Workload
	Recoverable
}, oracle map[uint64][]byte) error {
	if err := w.CheckDurable(sys.Mach.VolatileView(), oracle); err != nil {
		return fmt.Errorf("volatile view: %w", err)
	}
	return CheckOracle(sys, w, oracle)
}

// Factory builds a fresh workload instance.
type Factory func() Workload

var registry = map[string]Factory{}

// Register adds a workload factory; called from init functions of the
// structure packages.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workloads: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New instantiates a registered workload.
func New(name string) (Workload, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	return f(), nil
}

// MustNew is New that panics on unknown names.
func MustNew(name string) Workload {
	w, err := New(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Names returns the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Kernels returns the four STAMP-style kernel benchmarks (Figure 8).
func Kernels() []string { return []string{"hashtable", "rbtree", "heap", "avl"} }

// PMKV returns the key-value store backends (Figure 14).
func PMKV() []string { return []string{"kv-btree", "kv-ctree", "kv-rtree"} }

// Root slot conventions shared by the structures.
const (
	// RootMain is the structure's top pointer (bucket array, tree root).
	RootMain = 0
	// RootMeta holds a structure-specific scalar (bucket count, array
	// capacity).
	RootMeta = 1
	// RootCount holds the element count.
	RootCount = 2
	// RootMoveSrc is the lazy-move recovery slot: while non-zero it
	// points at the pre-move source (old bucket array, old heap array)
	// from which a crash recovery re-executes the move (§IV-B
	// Pattern 2). It is cleared — forcing the hardware to drain the
	// lazy copies first via the working-set signature — before the
	// source may be modified or reused.
	RootMoveSrc = 3
	// RootAux is free for structure-specific use.
	RootAux = 4
)

// ReadRoot reads root slot slot of the directory in img. The directory
// sits at the same address for every core count (mem.Layout.RootBase).
func ReadRoot(img *pmem.Image, slot int) uint64 { return img.ReadU64(rootAddr(img, slot)) }

// WriteRoot stores v in root slot slot of the directory in img.
func WriteRoot(img *pmem.Image, slot int, v uint64) { img.WriteU64(rootAddr(img, slot), v) }

func rootAddr(img *pmem.Image, slot int) mem.Addr {
	return mem.DefaultLayout(img.Size()).RootBase + mem.Addr(slot*8)
}

// Scratch is a workload instance's reusable read-side state: the buffer
// Get and Scan return values in. Reads allocate nothing after warm-up.
// The key sets CheckDurable fills and the extent slices Reach returns
// are not kept here but in package free lists (KeySet, ReachBuf), so a
// fresh instance's check and scan allocate nothing either. Not safe for
// concurrent use.
type Scratch struct {
	buf []byte
}

// Value loads the value whose length word is at lenAt and whose bytes
// start at valAt, with the loads and charges of a fresh copy. It returns
// a view of s's buffer, valid until the next call on s, so a caller that
// keeps it must copy it. The buffer grows only for a longer value.
func (s *Scratch) Value(tx *slpmt.Tx, lenAt, valAt slpmt.Addr) []byte {
	n := tx.LoadU64(lenAt)
	if uint64(cap(s.buf)) < n {
		s.buf = make([]byte, n)
	}
	v := s.buf[:n]
	tx.Load(valAt, v)
	return v
}

// keptKeys is the most keys a set may have held and still be kept.
// Crash campaigns check a few hundred keys per point (240 in the
// repository's benchmark). A larger set, from a one-off check of a
// structure of thousands of keys, is left to the garbage collector, so
// the list never pins one.
const keptKeys = 512

// keySets holds the key sets of CheckDurable's duplicate checks.
var keySets = freelist.List[map[uint64]bool]{Keep: keptKeys}

// KeySet returns an empty key set, reused when one is free. The caller
// hands it back with PutKeySet when its check returns, on every path.
func KeySet() map[uint64]bool {
	seen, ok := keySets.Get()
	if !ok {
		return map[uint64]bool{}
	}
	clear(seen)
	return seen
}

// PutKeySet keeps seen for the next KeySet, unless it held more than
// keptKeys keys. The caller must not use seen afterwards.
func PutKeySet(seen map[uint64]bool) { keySets.Put(seen, len(seen)) }

// keptExtents is the largest extent slice kept: four per kept key set's
// keys. A structure of keptKeys keys reaches at most three blocks per
// key (a kv-ctree or kv-rtree value block and its two index nodes) plus
// its array, so the scan of every structure whose key set is kept keeps
// its slice too, at 32 KiB a slice. A slice pre-sized from a corrupt
// RootCount, which only the image's size clamps (see ReachBuf), is far
// larger and is dropped.
const keptExtents = 4 * keptKeys

// extents holds the extent slices of Reach.
var extents = freelist.List[[]txheap.Extent]{Keep: keptExtents}

// ReachBuf returns the empty extent slice a Reach appends to, reused
// when one is free, with room for want extents, but no more than img
// could hold blocks of at least minBytes. want comes from the image's
// RootCount, so a corrupt count cannot make Reach allocate more than
// the image could hold. A caller that drops the scan hands the slice
// back with PutReach.
func ReachBuf(img *pmem.Image, want, minBytes uint64) []txheap.Extent {
	return freelist.GetSlice(&extents, int(min(want, img.Size()/minBytes)))
}

// PutReach keeps a Reach result for the next ReachBuf, unless it is
// larger than keptExtents. The caller must not use ext afterwards.
func PutReach(ext []txheap.Extent) { freelist.PutSlice(&extents, ext) }

// countError is CheckCount's rejection. Its message is formatted only
// when Error is called, so a rejection costs one small allocation. A
// crash campaign's prefix search skips the older candidates of the
// wrong size before CheckDurable (see Recoverable.CheckDurable), so it
// pays this only for the candidates it checks.
type countError struct {
	structure string
	count     uint64
	oracle    int
}

func (e *countError) Error() string {
	return fmt.Sprintf("%s durable: count %d, oracle %d", e.structure, e.count, e.oracle)
}

// CheckCount compares a structure's durable element count (its
// RootCount root) with the oracle's size. Every CheckDurable calls it
// before walking the structure, so a candidate oracle of the wrong size
// is rejected in O(1).
func CheckCount(structure string, count uint64, oracle map[uint64][]byte) error {
	if count == uint64(len(oracle)) {
		return nil
	}
	return &countError{structure, count, len(oracle)}
}

// CheckOracle is a helper: verifies Get returns every oracle pair.
func CheckOracle(sys *slpmt.System, w Workload, oracle map[uint64][]byte) error {
	for k, want := range oracle {
		got, ok := w.Get(sys, k)
		if !ok {
			return fmt.Errorf("%s: key %d missing", w.Name(), k)
		}
		if string(got) != string(want) {
			return fmt.Errorf("%s: key %d value mismatch (got %d bytes, want %d)",
				w.Name(), k, len(got), len(want))
		}
	}
	return nil
}

// ErrUnsupported is returned by Mutable operations a structure does not
// implement, and by Apply for an op the structure has no method for.
var ErrUnsupported = errors.New("workloads: operation not supported")

// Mutable is implemented by workloads that support updates and deletes
// in addition to the paper's insert-only ycsb-load — the operations a
// downstream adopter needs, and the ones that exercise the free/reuse
// and unlink recovery paths.
type Mutable interface {
	// UpdateValue replaces the value of an existing key in one durable
	// transaction. The new value has the same length as the old one
	// (the kernels store values inline).
	UpdateValue(sys *slpmt.System, key uint64, value []byte) error
	// Delete removes a key in one durable transaction. Returns
	// ErrUnsupported where the structure does not implement removal.
	Delete(sys *slpmt.System, key uint64) error
}

// Ranger is implemented by workloads with ordered keys that support
// range scans over [from, to] (inclusive). The callback returns false
// to stop early. Scans run through the volatile view (loads are timed
// and lazy-persistency checks apply, like any read). Each value passed
// to the callback views the instance's read buffer: valid until the
// callback returns or calls the instance, so keeping it needs a copy.
type Ranger interface {
	Scan(sys *slpmt.System, from, to uint64, fn func(key uint64, value []byte) bool) error
}

// Apply runs op on w through sys: the one op switch of bench runs and
// crash campaigns alike. An insert, update or delete is one durable
// transaction; a read or scan runs through the volatile view. A read
// that misses is an error; an update, delete or scan on a structure
// without Mutable or Ranger, or an op of no known kind, returns
// ErrUnsupported.
func Apply(w Workload, sys *slpmt.System, op ycsb.MixOp) error {
	switch op.Kind {
	case ycsb.OpInsert:
		return w.Insert(sys, op.Key, op.Value)
	case ycsb.OpRead:
		if _, ok := w.Get(sys, op.Key); !ok {
			return fmt.Errorf("%s: read miss on key %d", w.Name(), op.Key)
		}
		return nil
	case ycsb.OpUpdate:
		if m, ok := w.(Mutable); ok {
			return m.UpdateValue(sys, op.Key, op.Value)
		}
	case ycsb.OpDelete:
		if m, ok := w.(Mutable); ok {
			return m.Delete(sys, op.Key)
		}
	case ycsb.OpScan:
		if r, ok := w.(Ranger); ok {
			n := int32(0)
			return r.Scan(sys, op.Key, ^uint64(0), func(uint64, []byte) bool {
				n++
				return n < op.ScanLen
			})
		}
	}
	return ErrUnsupported
}
