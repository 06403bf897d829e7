// Package slpmt is a software reproduction of "Reconciling Selective
// Logging and Hardware Persistent Memory Transaction" (HPCA 2023): a
// cycle-approximate simulator of hardware persistent-memory transactions
// with the paper's storeT ISA extension, fine-grain logging, and lazy
// persistency, together with the baseline designs it is evaluated
// against (FG, ATOM, EDE).
//
// The top-level API is the System: one simulated core, its cache
// hierarchy, a persistent-memory device, a transaction engine configured
// as one of the named schemes, and a persistent heap. Durable
// transactions run through Update:
//
//	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
//	sys.Update(func(tx *slpmt.Tx) error {
//	    node := tx.Alloc(24)
//	    tx.StoreTU64(node+0, key, slpmt.LogFree)   // fresh memory: no log
//	    tx.StoreTU64(node+8, val, slpmt.LogFree)
//	    head := tx.LoadU64(root)
//	    tx.StoreTU64(node+16, head, slpmt.LogFree) // next pointer
//	    tx.StoreU64(root, uint64(node))            // link: logged store
//	    return nil
//	})
//
// Execution is fully simulated: time (cycles), persistent-memory write
// traffic, cache behaviour, and the durable memory image (for crash and
// recovery testing) are all observable. See the internal packages for
// the architecture and DESIGN.md for the paper-to-code map.
//
// NewCluster builds the multi-core variant: N Systems, one per core,
// over a shared LLC, PM device, and persistent heap, with MESI-lite
// coherence and cross-core conflict detection; Interleave runs their
// transaction streams under a deterministic scheduler. A System is
// core 0 of a 1-core Cluster: New builds exactly that, so the two are
// identical by construction.
package slpmt

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/persistmem/slpmt/internal/engine"
	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/txheap"
)

// Addr is a simulated persistent-memory address.
type Addr = mem.Addr

// Attr carries the storeT operand bits (lazy, log-free).
type Attr = isa.Attr

// Store annotations (see Table I of the paper).
var (
	// Plain is conventional behaviour: logged, persisted at commit.
	Plain = isa.Plain
	// LogFree marks data recoverable without a log (e.g. stores into
	// freshly allocated memory): persisted at commit, never logged.
	LogFree = isa.LogFree
	// LazyLogFree marks data both log-free and lazily persistent: it
	// may stay in the cache past commit and is rebuilt by recovery.
	LazyLogFree = isa.LazyLogFree
	// LazyLogged keeps the log record but defers the data persist; the
	// record is discarded at commit if the line is still cached.
	LazyLogged = isa.LazyLogged
)

// Options configures a System.
type Options struct {
	// Scheme is the hardware design to model; one of the names in
	// Schemes(). Default "SLPMT".
	Scheme string
	// Machine overrides the simulated platform (zero = the paper's
	// Table III configuration).
	Machine machine.Config
	// PMWriteNanos overrides the persistent-memory write latency in
	// nanoseconds (the Figure 12 sensitivity knob). Zero = 500 ns.
	PMWriteNanos uint64
	// ComputeCyclesPerOp adds a fixed compute cost to every Load/Store,
	// modelling the workload's non-memory work. Zero = 1 cycle.
	ComputeCyclesPerOp uint64
	// Sockets is the number of PM sockets (NUMA nodes) of the simulated
	// platform: each socket is its own device (WPQ, banks, drain clock)
	// behind a hop-linear interconnect distance matrix, and each core is
	// pinned to home socket core%Sockets. 0 or 1 models the single-device
	// machine, byte-identical to builds without the topology.
	Sockets int
	// RemoteNanos overrides the per-hop interconnect latency a remote
	// persist enqueue pays, in nanoseconds; remote line fills pay twice
	// that (reads cross the interconnect both ways). Zero keeps the
	// defaults (pmem.DefaultRemoteEnqueueCycles/ReadCycles). Only
	// meaningful with Sockets > 1.
	RemoteNanos uint64
	// CommitWindow is the group-commit window W: the engine batches the
	// ordering persists of up to W committed transactions into one
	// epoch close (see engine.Config.CommitWindow). 0 or 1 = the
	// per-transaction protocol.
	CommitWindow int
	// Trace, when non-nil, attaches a cycle-level event tracer to the
	// simulated machine (see internal/trace). Tracing is observation
	// only: it never changes timing or counters.
	Trace *trace.Tracer
	// Profile, when non-nil, attaches a cycle-attribution profile to the
	// simulated machine (see internal/profile): every clock advance is
	// charged to one cause, and the per-core sums equal the clock totals
	// exactly. Observation only, like Trace.
	Profile *profile.Profile
}

// Schemes returns the available scheme names.
func Schemes() []string { return schemes.Names() }

// EvaluatedSchemes returns the paper's main comparison set (Figure 8).
func EvaluatedSchemes() []string { return schemes.Evaluated() }

// System is one simulated core with a transaction engine and a
// persistent heap. Not safe for concurrent use. Systems of a
// multi-core platform (see NewCluster) share the heap's space, the LLC
// and the PM device with their sibling cores; each allocates through
// its own heap handle.
type System struct {
	Eng  *engine.Engine
	Mach *machine.Core
	Heap *txheap.Heap

	scheme string
	rec    Recorder
	inTx   bool
	// strip makes every StoreT execute as a plain store while still
	// reporting the manual annotation to the Recorder: the mode the
	// compiler tooling uses to capture an un-annotated trace.
	strip bool
	// copyBuf is Tx.Copy's staging buffer, reused across calls: the
	// engine's Store copies the bytes into the memory image and the log
	// records capture old values from there, so nothing retains it.
	copyBuf []byte
	// rw and ro are the handles Update and View pass to their callbacks.
	// A Tx holds no per-transaction state, so one of each serves every
	// transaction without allocating.
	rw, ro Tx
}

// resolve maps Options to the engine and machine configurations.
func (opts Options) resolve() (string, engine.Config, machine.Config) {
	name := opts.Scheme
	if name == "" {
		name = schemes.SLPMT
	}
	cfg, err := schemes.Lookup(name)
	if err != nil {
		panic(err)
	}
	if opts.ComputeCyclesPerOp == 0 {
		opts.ComputeCyclesPerOp = 1
	}
	cfg.ComputeCyclesPerOp = opts.ComputeCyclesPerOp
	cfg.CommitWindow = opts.CommitWindow
	mc := opts.Machine
	if opts.PMWriteNanos != 0 {
		mc.PM.WriteCycles = opts.PMWriteNanos * pmem.CyclesPerNs
	}
	if opts.Sockets > 1 {
		mc.Sockets = opts.Sockets
	}
	if opts.RemoteNanos != 0 {
		mc.RemoteEnqueueCycles = opts.RemoteNanos * pmem.CyclesPerNs
		mc.RemoteReadCycles = 2 * opts.RemoteNanos * pmem.CyclesPerNs
	}
	if opts.Trace != nil {
		mc.Trace = opts.Trace
	}
	if opts.Profile != nil {
		mc.Profile = opts.Profile
	}
	return name, cfg, mc
}

// reset returns the System to its newly built state: no transaction
// open, no Recorder, strip mode off. Tx.Copy's staging buffer is kept.
func (s *System) reset() {
	*s = System{Eng: s.Eng, Mach: s.Mach, Heap: s.Heap, scheme: s.scheme, copyBuf: s.copyBuf}
}

// New builds a single-core System for the given options: core 0 of
// NewCluster(1, opts).
func New(opts Options) *System { return NewCluster(1, opts).Sys[0] }

// Scheme returns the scheme name the system models.
func (s *System) Scheme() string { return s.scheme }

// Stats returns the live counters (mutated as simulation proceeds).
func (s *System) Stats() *stats.Counters { return s.Mach.Stats }

// Cycles returns the simulated time so far.
func (s *System) Cycles() uint64 { return s.Mach.Clk }

// Layout returns the persistent-memory address map.
func (s *System) Layout() mem.Layout { return s.Mach.Layout }

// Recorder observes the transactional operations a workload performs;
// the compiler tooling uses it to capture a transaction IR (§IV).
type Recorder interface {
	RecBegin(seq uint64)
	RecCommit()
	RecAbort()
	RecAlloc(addr Addr, size uint64)
	RecFree(addr Addr)
	RecLoad(addr Addr, size int)
	RecStore(addr Addr, data []byte, kind isa.Kind, attr Attr, site uintptr)
	RecCopy(dst, src Addr, size int, kind isa.Kind, attr Attr, site uintptr)
}

// AttachRecorder installs (or, with nil, removes) a Recorder.
func (s *System) AttachRecorder(r Recorder) { s.rec = r }

// SetStrip enables or disables annotation stripping: when on, every
// StoreT executes as a plain store while its manual annotation is still
// reported to the Recorder. The compiler tooling uses this to capture
// un-annotated traces (§IV).
func (s *System) SetStrip(on bool) { s.strip = on }

// Tx is a handle on the current durable transaction. It is only valid
// inside the Update or View callback that received it.
type Tx struct {
	s  *System
	ro bool
}

// Update runs fn inside a durable transaction. If fn returns an error
// the transaction aborts: logged updates are rolled back by the
// hardware, heap allocations are returned, and the error is returned to
// the caller (log-free updates must be repaired by the caller's own
// recovery logic, per the paper's contract).
func (s *System) Update(fn func(tx *Tx) error) error {
	if s.inTx {
		panic("slpmt: nested Update")
	}
	s.inTx = true
	defer func() { s.inTx = false }()
	s.Eng.Begin()
	s.Heap.BeginTx()
	if s.rec != nil {
		s.rec.RecBegin(s.Eng.Seq())
	}
	s.rw = Tx{s: s}
	if err := fn(&s.rw); err != nil {
		s.Eng.Abort()
		s.Heap.AbortTx()
		if s.rec != nil {
			s.rec.RecAbort()
		}
		return err
	}
	s.Eng.Commit()
	s.Heap.CommitTx()
	if s.rec != nil {
		s.rec.RecCommit()
	}
	return nil
}

// View runs fn with read-only access outside any transaction (loads are
// timed and lazy-persistency checks apply; stores panic).
func (s *System) View(fn func(tx *Tx)) {
	if s.inTx {
		panic("slpmt: View inside Update")
	}
	s.ro = Tx{s: s, ro: true}
	fn(&s.ro)
}

// DrainLazy forces every deferred (lazily persistent) line to PM — the
// effect of running four empty transactions. Harnesses call it at the
// end of the measured region.
func (s *System) DrainLazy() { s.Eng.DrainLazy() }

// FinishEpoch force-closes the open group-commit epoch so every
// committed transaction is durable. A no-op without a commit window.
// Harnesses call it at durability boundaries (e.g. after a setup
// phase, before taking a crash snapshot).
func (s *System) FinishEpoch() { s.Eng.FinishEpoch() }

// Alloc allocates size bytes of persistent memory.
func (tx *Tx) Alloc(size uint64) Addr {
	tx.mutcheck()
	a := tx.s.Heap.Alloc(size)
	if tx.s.rec != nil {
		tx.s.rec.RecAlloc(a, size)
	}
	return a
}

// Free releases a block (quarantined until commit).
func (tx *Tx) Free(addr Addr) {
	tx.mutcheck()
	tx.s.Heap.Free(addr)
	if tx.s.rec != nil {
		tx.s.rec.RecFree(addr)
	}
}

func (tx *Tx) mutcheck() {
	if tx.ro {
		panic("slpmt: mutation in read-only View")
	}
}

// Load reads len(p) bytes at addr.
func (tx *Tx) Load(addr Addr, p []byte) {
	tx.s.Eng.Load(addr, p)
	if tx.s.rec != nil {
		tx.s.rec.RecLoad(addr, len(p))
	}
}

// LoadU64 reads one 64-bit word.
func (tx *Tx) LoadU64(addr Addr) uint64 {
	v := tx.s.Eng.LoadU64(addr)
	if tx.s.rec != nil {
		tx.s.rec.RecLoad(addr, 8)
	}
	return v
}

// Store performs a conventional (logged, eagerly persisted) store.
func (tx *Tx) Store(addr Addr, p []byte) {
	tx.mutcheck()
	tx.s.Eng.Store(addr, p, isa.Store, isa.Plain)
	if tx.s.rec != nil {
		tx.s.rec.RecStore(addr, cloneBytes(p), isa.Store, isa.Plain, callSite())
	}
}

// StoreU64 is Store for one 64-bit word.
func (tx *Tx) StoreU64(addr Addr, v uint64) {
	tx.mutcheck()
	tx.s.Eng.StoreU64(addr, v, isa.Store, isa.Plain)
	if tx.s.rec != nil {
		tx.s.rec.RecStore(addr, u64bytes(v), isa.Store, isa.Plain, callSite())
	}
}

// StoreT performs a storeT with the given annotation. Under schemes
// that do not honour the annotation (FG, ATOM, EDE) it behaves exactly
// like Store.
func (tx *Tx) StoreT(addr Addr, p []byte, attr Attr) {
	tx.mutcheck()
	kind, a := tx.effective(attr)
	tx.s.Eng.Store(addr, p, kind, a)
	if tx.s.rec != nil {
		tx.s.rec.RecStore(addr, cloneBytes(p), isa.StoreT, attr, callSite())
	}
}

// StoreTU64 is StoreT for one 64-bit word.
func (tx *Tx) StoreTU64(addr Addr, v uint64, attr Attr) {
	tx.mutcheck()
	kind, a := tx.effective(attr)
	tx.s.Eng.StoreU64(addr, v, kind, a)
	if tx.s.rec != nil {
		tx.s.rec.RecStore(addr, u64bytes(v), isa.StoreT, attr, callSite())
	}
}

// Copy moves size bytes from src to dst (a load followed by a store
// with the given annotation). Its explicit source provenance is what
// the compiler's Pattern 2 analysis keys on.
func (tx *Tx) Copy(dst, src Addr, size int, attr Attr) {
	tx.mutcheck()
	buf := slices.Grow(tx.s.copyBuf[:0], size)[:size]
	tx.s.copyBuf = buf
	tx.s.Eng.Load(src, buf)
	kind, a := tx.effective(attr)
	tx.s.Eng.Store(dst, buf, kind, a)
	if tx.s.rec != nil {
		tx.s.rec.RecCopy(dst, src, size, isa.StoreT, attr, callSite())
	}
}

// CopyU64 is Copy for one word.
func (tx *Tx) CopyU64(dst, src Addr, attr Attr) { tx.Copy(dst, src, 8, attr) }

// effective maps an annotation to the executed instruction, honouring
// the system's strip mode (the compiler tooling records manual
// annotations while executing plain stores).
func (tx *Tx) effective(attr Attr) (isa.Kind, Attr) {
	if tx.s.strip {
		return isa.Store, isa.Plain
	}
	return isa.StoreT, attr // with Plain, storeT's clear operands make it a store
}

// SetRoot stores a root-directory pointer (slot 0..511), visible to
// recovery. Logged like any other store.
func (tx *Tx) SetRoot(slot int, v uint64) {
	tx.mutcheck()
	a := tx.s.rootAddr(slot)
	tx.s.Eng.StoreU64(a, v, isa.Store, isa.Plain)
	if tx.s.rec != nil {
		tx.s.rec.RecStore(a, u64bytes(v), isa.Store, isa.Plain, callSite())
	}
}

// Root loads a root-directory pointer.
func (tx *Tx) Root(slot int) uint64 {
	a := tx.s.rootAddr(slot)
	v := tx.s.Eng.LoadU64(a)
	if tx.s.rec != nil {
		tx.s.rec.RecLoad(a, 8)
	}
	return v
}

func (s *System) rootAddr(slot int) Addr {
	// The directory's top line is the group-commit descriptor
	// (Layout.GroupDesc); its slots are out of application reach.
	if slot < 0 || slot >= int((s.Mach.Layout.RootSize-mem.LineSize)/8) {
		panic(fmt.Sprintf("slpmt: root slot %d out of range", slot))
	}
	return s.Mach.Layout.RootBase + Addr(slot*8)
}

func cloneBytes(p []byte) []byte {
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

func u64bytes(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
	return b
}

// callSite returns the PC of the workload code performing the store,
// identifying the source-level "variable" for the compiler coverage
// comparison (Figure 13).
func callSite() uintptr {
	pc, _, _, ok := runtime.Caller(2)
	if !ok {
		return 0
	}
	return pc
}
