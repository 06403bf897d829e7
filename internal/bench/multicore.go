package bench

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// RunMulti executes one benchmark on a multi-core cluster: the
// structure is built once (on core 0), the deterministic key stream is
// sharded round-robin across the cores, and the per-core insert
// streams run under the cluster's deterministic interleaver. The
// measured region starts at a clock barrier after setup and ends when
// the last core finishes its shard plus the final lazy drain, so
// Cycles is the parallel makespan; Counters is the merged per-core
// delta. Results are exactly reproducible for a given (config, seed).
func RunMulti(cfg RunConfig) Result {
	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	w := workloads.MustNew(cfg.Workload)
	var mc machine.Config
	mc.PM.Banks = cfg.Banks
	mc.PM.WPQBytes = cfg.WPQBytes
	tr := runTracer(cfg)
	if cfg.StreamDir != "" && tr == nil {
		tr = trace.New(StreamRingEvents)
	}
	var prof *profile.Profile
	if cfg.Profile || cfg.CritPath {
		prof = profile.New(cores)
	}
	cl := slpmt.NewCluster(cores, slpmt.Options{
		Scheme:             cfg.Scheme,
		Machine:            mc,
		PMWriteNanos:       cfg.PMWriteNanos,
		ComputeCyclesPerOp: w.ComputeCost(),
		CommitWindow:       cfg.CommitWindow,
		Sockets:            cfg.Sockets,
		RemoteNanos:        cfg.RemoteNanos,
		Trace:              tr,
		Profile:            prof,
	})
	if err := w.Setup(cl.Use(0)); err != nil {
		panic(fmt.Sprintf("bench: setup %s: %v", cfg.Workload, err))
	}
	// Seal any epoch setup left open so the measured region starts at a
	// durability boundary (setup runs on core 0 only).
	cl.Use(0).FinishEpoch()

	load := ycsb.Load{N: cfg.N, ValueSize: cfg.ValueSize, Seed: cfg.Seed}
	keys := load.Keys()
	start := cl.Stats()
	startClk := cl.SyncClocks()
	// The occupancy window always restarts at the measured region on a
	// multi-core run: the parallel phase's WPQ pressure is the scaling
	// story, so the gauges are reported whether or not a tracer is on.
	// The topology surface covers every socket's queue (and delegates
	// to the one device on single-socket machines).
	cl.Plat.Topo.ResetOccupancy(startClk)
	var sw *streamRun
	if tr != nil {
		tr.Reset()
		if cfg.StreamDir != "" {
			// Attach the binlog sink after the boundary so the stream
			// holds exactly the measured region.
			sw = attachStream(cfg, tr)
		}
	}
	if prof != nil {
		prof.Reset()
	}

	// Shard i runs keys[i], keys[i+cores], ... — every core sees an
	// equal slice of the same deterministic stream.
	next := make([]int, cores)
	for i := range next {
		next[i] = i
	}
	cl.Interleave(func(core int, sys *slpmt.System) bool {
		j := next[core]
		if j >= len(keys) {
			return false
		}
		next[core] = j + cores
		key := keys[j]
		if err := w.Insert(sys, key, load.Value(key)); err != nil {
			panic(fmt.Sprintf("bench: %s/%s insert: %v", cfg.Scheme, cfg.Workload, err))
		}
		return next[core] < len(keys)
	})
	cl.DrainLazy()

	merged := cl.Stats()
	res := Result{
		RunConfig: cfg,
		Cycles:    cl.MaxClk() - startClk,
		Counters:  merged.Delta(start),
	}
	cl.Plat.Topo.QueueDepth(cl.MaxClk())
	res.Counters.WPQOccMaxBytes, res.Counters.WPQOccAvgBytes = cl.Plat.Topo.OccupancyStats()
	if tr != nil {
		reduceTrace(&res, tr, sw, cl.Plat.Topo)
	}
	if cl.Sockets() > 1 {
		res.PerSocket = &SocketBreakdown{Stats: cl.SocketStats()}
	}
	if prof != nil {
		// Snapshot before verification advances the clocks further. Each
		// core's total is its own clock advance since the barrier (the
		// cores finish at different clocks; Cycles is the max).
		totals := make([]uint64, cores)
		for i := range totals {
			totals[i] = cl.Plat.Core(i).Clk - startClk
		}
		res.Causes = prof.Breakdown(totals)
	}
	if cfg.Verify {
		res.VerifyErr = w.Check(cl.Use(0), load.Oracle())
	}
	if c := collector.Load(); c != nil {
		c.Add(res)
	}
	return res
}
