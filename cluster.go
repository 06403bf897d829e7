package slpmt

import (
	"fmt"

	"github.com/persistmem/slpmt/internal/engine"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/txheap"
)

// Cluster is a multi-core simulated platform: one System per core, all
// sharing the LLC, the persistent-memory device (and its write pending
// queue), and one persistent heap. Each core allocates through its own
// heap handle, charged to its own clock; with Options.Sockets > 1 the
// device becomes a socket-per-device topology and each handle allocates
// from its home socket's arena first. Each core runs its own
// transaction engine with a private log region; cross-engine conflicts
// are detected through the coherence bus — a remote store checks every
// other engine's retained-transaction signatures and forces lazy drains
// on a hit (§III-C3 applied across cores).
//
// The Cluster is the only way a platform is built: a System from New is
// core 0 of a 1-core Cluster, so every harness drives one code path at
// any core count.
//
// Execution is simulated on one OS thread by deterministically
// interleaving the cores at transaction granularity (see Interleave),
// so multi-core runs are exactly reproducible.
type Cluster struct {
	// Plat is the shared platform (LLC, PM device, cores).
	Plat *machine.Machine
	// Sys holds one System per core.
	Sys []*System

	heaps []*txheap.Heap     // Sys[i].Heap, for txheap.Reset
	group *engine.EpochGroup // nil unless CommitWindow > 1 on several cores
}

// MaxCores is the largest core count a Cluster supports (Interleave
// tracks finished cores in one 64-bit mask).
const MaxCores = 64

// NewCluster builds a platform with the given core count. Every core
// runs the same scheme. New(opts) is core 0 of NewCluster(1, opts).
func NewCluster(cores int, opts Options) *Cluster {
	if cores < 1 {
		cores = 1
	}
	if cores > MaxCores {
		panic(fmt.Sprintf("slpmt: NewCluster supports at most %d cores, got %d", MaxCores, cores))
	}
	name, cfg, mc := opts.resolve()
	mc.Cores = cores
	plat := machine.New(mc)
	cl := &Cluster{Plat: plat, Sys: make([]*System, cores)}
	// One heap handle per core over the shared heap; on a multi-socket
	// machine each handle allocates from its home-socket arena first.
	cl.heaps = txheap.New(plat.Layouts(), func(i int) txheap.Ticker { return plat.Core(i) })
	systems := make([]System, cores)
	for i := range systems {
		c := plat.Core(i)
		e := engine.New(c, cfg)
		heap := cl.heaps[i]
		if cfg.CommitWindow > 1 {
			e.SetEpochCloseHook(heap.ReleaseEpochFrees)
		}
		systems[i] = System{Eng: e, Mach: c, Heap: heap, scheme: name}
		cl.Sys[i] = &systems[i]
	}
	if cores > 1 {
		plat.OnRemoteStore = func(src int, line mem.Addr) {
			for i, s := range cl.Sys {
				if i != src {
					s.Eng.CoherenceStore(line)
				}
			}
		}
	}
	if cores > 1 && cfg.CommitWindow > 1 {
		// Transactions on different cores exchange cache lines inside a
		// commit window, so per-core epochs must become durable together:
		// the group coordinates atomic multi-core closes and numbers
		// transactions from one cluster-global sequence.
		engines := make([]*engine.Engine, cores)
		for i, s := range cl.Sys {
			engines[i] = s.Eng
		}
		cl.group = engine.NewEpochGroup(engines)
	}
	cl.quarantine()
	return cl
}

// quarantine extends the heap handles' free quarantine to the epoch
// close under group commit. Committed frees stay quarantined until
// their epoch's commit point is durable — reuse inside the window would
// scribble log-free stores over blocks the durable state still
// reaches. Each engine's close releases its own handle's frees (the
// hook NewCluster installs); group closes seal every core's epoch
// together, and a sibling handle's frees that wait for their own
// core's close only lengthen the quarantine (conservative, still
// sound).
func (cl *Cluster) quarantine() {
	if cl.Sys[0].Eng.Config().CommitWindow > 1 {
		for _, h := range cl.heaps {
			h.EpochQuarantine(true)
		}
	}
}

// Reset returns the cluster to the state NewCluster left it in, as if
// it had been built anew with the same core count and Options, while
// keeping every buffer and memory mapping the platform has grown: a
// crash sweep resets one cluster per point instead of building one.
// Every layer is reset — machine (clocks, counters, caches, WPQs, both
// memory images, the crash point), engines and their epoch group, heap
// handles, and each System's recorder and strip mode. A Trace or
// Profile given in Options is kept and not reset. Reset panics while
// any of the cluster's Systems is inside Update; after a crash (the
// machine's CrashSignal panic) it is the way to reuse the platform.
func (cl *Cluster) Reset() {
	for _, s := range cl.Sys {
		if s.inTx {
			panic("slpmt: Cluster.Reset inside Update")
		}
	}
	cl.Plat.Reset()
	for _, s := range cl.Sys {
		s.Eng.Reset()
		s.reset()
	}
	if cl.group != nil {
		cl.group.Reset()
	}
	// txheap.Reset also clears the epoch quarantine, which group commit
	// needs back on.
	txheap.Reset(cl.heaps)
	cl.quarantine()
}

// Use returns core i's System — the way single-threaded phases (setup,
// loading) run on a cluster. It has no side effect: every System's heap
// handle already charges its own core. Interleave selects cores itself.
func (cl *Cluster) Use(i int) *System { return cl.Sys[i] }

// Interleave runs per-core operation streams to completion under the
// deterministic scheduler: at every step the unfinished core with the
// lowest clock runs its next operation, ties broken by core ID (the
// round-robin order). stream(core, sys) must run exactly one operation
// of core's stream on sys and report whether more remain.
//
// Interleaving is at operation (transaction) granularity: a transaction
// runs to completion before another core is scheduled, so transactions
// never interleave mid-flight — cross-core interactions are coherence
// misses, WPQ contention, and signature-forced lazy drains between
// transactions. Operations on different cores must therefore be
// logically independent (e.g. sharded key streams); the simulator does
// not model speculative conflict aborts between in-flight transactions.
func (cl *Cluster) Interleave(stream func(core int, sys *System) bool) {
	var done uint64 // bit i set: core i's stream is finished
	all := uint64(1)<<len(cl.Sys) - 1
	for done != all {
		pick := -1
		for i, s := range cl.Sys {
			if done&(1<<i) != 0 {
				continue
			}
			if pick < 0 || s.Mach.Clk < cl.Sys[pick].Mach.Clk {
				pick = i
			}
		}
		if !stream(pick, cl.Use(pick)) {
			done |= 1 << pick
		}
	}
}

// SyncClocks aligns every core to the highest clock — the barrier
// between a setup phase and a measured parallel phase — and returns it.
func (cl *Cluster) SyncClocks() uint64 { return cl.Plat.SyncClocks() }

// MaxClk returns the highest core clock — the parallel phase's
// makespan when read after Interleave.
func (cl *Cluster) MaxClk() uint64 { return cl.Plat.MaxClk() }

// DrainLazy forces every core's deferred lazy data to PM.
func (cl *Cluster) DrainLazy() {
	for i := range cl.Sys {
		cl.Use(i).DrainLazy()
	}
}

// Stats returns the merged per-core counters. Cycles is not populated
// (per-core clocks do not sum meaningfully); use MaxClk for time.
func (cl *Cluster) Stats() stats.Counters { return cl.Plat.MergedStats() }

// Sockets returns the platform's PM socket count (1 on a single-device
// machine).
func (cl *Cluster) Sockets() int { return cl.Plat.Topo.Sockets() }

// SocketStats returns per-socket device statistics — enqueue counts,
// WPQ-full stall cycles, occupancy — in socket order. The NUMA
// experiments read it to show how persist traffic spreads over the
// topology.
func (cl *Cluster) SocketStats() []pmem.SocketStats { return cl.Plat.Topo.SocketStats() }
