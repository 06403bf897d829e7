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
// queue), and one persistent heap — or, with Options.Sockets > 1, a
// socket-per-device topology with a per-core sharded heap (each core
// allocating from its home socket's arena). Each core runs its own
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

	tick tickMux
}

// tickMux charges heap-operation cycles to whichever core is currently
// executing; the shared txheap sees one Ticker.
type tickMux struct{ c *machine.Core }

func (t *tickMux) Tick(n uint64) { t.c.Tick(n) }

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
	cl.tick.c = plat.Core(0)
	var shared *txheap.Heap
	var sharded []*txheap.Heap
	if plat.Topo.Sockets() > 1 {
		// Sharded heap: one handle per core, allocating from the core's
		// home-socket arena with a shared global fallback (even one core
		// allocates through it, so its objects land on its home socket's
		// stripe). Each handle charges its own core's clock, so the
		// classic tickMux routing is unnecessary on this path.
		clks := make([]txheap.Ticker, cores)
		layouts := make([]mem.Layout, cores)
		for i := 0; i < cores; i++ {
			clks[i] = plat.Core(i)
			layouts[i] = plat.Core(i).Layout
		}
		sharded = txheap.NewSharded(clks, layouts, opts.AllocCycles)
	} else {
		shared = txheap.New(&cl.tick, plat.Layout, opts.AllocCycles)
	}
	systems := make([]System, cores)
	for i := range systems {
		c := plat.Core(i)
		e := engine.New(c, cfg)
		heap := shared
		if sharded != nil {
			heap = sharded[i]
		}
		if cfg.CommitWindow > 1 {
			// Committed frees stay quarantined until their epoch's commit
			// point is durable — reuse inside the window would scribble
			// log-free stores over blocks the durable state still
			// reaches. Group closes seal every core's epoch together, so
			// releasing the shared heap's parked frees at any engine's
			// close is sound. On a sharded heap each engine's close
			// releases its own handle's frees; sibling handles' frees
			// wait for their own core's close, which only lengthens the
			// quarantine (conservative, still sound).
			heap.EpochQuarantine(true)
			e.SetEpochCloseHook(heap.ReleaseEpochFrees)
		}
		systems[i] = System{Eng: e, Mach: c, Heap: heap, scheme: name}
		cl.Sys[i] = &systems[i]
	}
	if cores == 1 {
		return cl
	}
	plat.OnRemoteStore = func(src int, line mem.Addr) {
		for i, s := range cl.Sys {
			if i != src {
				s.Eng.CoherenceStore(line)
			}
		}
	}
	if cfg.CommitWindow > 1 {
		// Transactions on different cores exchange cache lines inside a
		// commit window, so per-core epochs must become durable together:
		// the group coordinates atomic multi-core closes and numbers
		// transactions from one cluster-global sequence.
		engines := make([]*engine.Engine, cores)
		for i, s := range cl.Sys {
			engines[i] = s.Eng
		}
		engine.NewEpochGroup(engines)
	}
	return cl
}

// Use selects core i for direct driving (heap costs charge to it) and
// returns its System — the way single-threaded phases (setup, loading)
// run on a cluster. Interleave selects cores itself.
func (cl *Cluster) Use(i int) *System {
	cl.tick.c = cl.Sys[i].Mach
	return cl.Sys[i]
}

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
