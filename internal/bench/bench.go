// Package bench is the experiment harness: it runs (scheme × workload ×
// parameter) grids of ycsb-load or of a YCSB mix and renders the
// paper's figures as text tables (speedups over the FG baseline,
// persistent-memory write-traffic reductions, and sensitivity sweeps).
package bench

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// RunConfig parameterizes one benchmark execution.
type RunConfig struct {
	// Scheme is the hardware design name (schemes package).
	Scheme string
	// Workload is the benchmark name (workloads package).
	Workload string
	// N is the number of insert operations, or of a Mix's operations
	// (0 = 1000).
	N int
	// ValueSize is the value payload in bytes (0 = 256).
	ValueSize int
	// PMWriteNanos overrides the PM write latency (0 = 500 ns).
	PMWriteNanos uint64
	// Banks overrides the device write parallelism (0 = default 2).
	Banks int
	// WPQBytes overrides the write-pending-queue capacity (0 = 512).
	WPQBytes int
	// Seed selects the deterministic key stream (0 = default).
	Seed uint64
	// Mix, when set, runs a YCSB operation blend instead of the load:
	// its Records keys are inserted before the measured region, which
	// then runs the mix's N operations (ycsb.Mix.Ops), each through
	// workloads.Apply. The zero Mix is the paper's ycsb-load. A mix
	// runs on one core.
	Mix ycsb.Mix
	// CommitWindow is the group-commit window W (0 or 1 = the
	// per-transaction protocol; see engine.Config.CommitWindow).
	CommitWindow int
	// Verify runs the structure's invariant check after the measured
	// region (errors are reported in the result).
	Verify bool
	// Cores is the simulated core count (0 = 1). The key stream is
	// sharded round-robin across the cores of one shared structure and
	// the cores are interleaved deterministically; Cycles is the
	// parallel phase's makespan (see Run).
	Cores int
	// Sockets is the PM socket (NUMA node) count: each socket is its
	// own device behind a hop-linear interconnect and the heap is
	// sharded into per-core home-socket arenas. 0 or 1 = the
	// single-device machine (byte-identical to builds without the
	// topology).
	Sockets int
	// RemoteNanos overrides the per-hop interconnect latency of a
	// remote persist enqueue in nanoseconds (remote line fills pay
	// twice that); 0 keeps the pmem defaults. The NUMA experiment's
	// local/remote-ratio knob. Only meaningful with Sockets > 1.
	RemoteNanos uint64
	// Trace, when non-nil, records the run into this tracer instead of
	// an internal StreamRingEvents ring; it is the tests' reference
	// path. The caller owns the tracer (full event detail); setup
	// events are cleared so the ring holds the measured region, and
	// without StreamDir the result's Summary and CritPath are reduced
	// from the ring after the run. One tracer must not be shared across
	// concurrently executing runs (see SetParallelism).
	Trace *trace.Tracer
	// Metrics, when Trace is nil, records the transaction lifecycle and
	// WPQ kinds (trace.MetricsMask) into one StreamRingEvents ring whose
	// spills feed the latency summarizer live, populating
	// Result.Summary however long the run.
	Metrics bool
	// Profile attaches a cycle-attribution profile to the run's machine
	// and populates Result.Causes with the measured region's breakdown.
	// Observation-only: cycles, counters and non-KCharge trace events
	// are identical with or without it.
	Profile bool
	// StreamDir, when non-empty, also keeps the measured region's trace
	// as an on-disk SLPSEG01 binlog in this directory: the segment
	// writer is one more consumer of the ring's spills, and
	// Result.Intervals carries the live telemetry series (also written
	// as NDJSON to StreamDir/telemetry.ndjson). Without Trace or Metrics
	// the ring records full detail. Observation-only: simulated cycles,
	// counters, and goldens are byte-identical with streaming on.
	StreamDir string
	// StreamInterval is the telemetry snapshot window in simulated
	// cycles (0 = the stream package default).
	StreamInterval uint64
	// CritPath feeds the measured region's full-detail trace to the
	// causal critical-path analyzer as the ring spills and populates
	// Result.CritPath. Implies a cycle-attribution profile (the
	// analysis consumes the KCharge stream). Observation-only like
	// Profile: cycles, counters and goldens are byte-identical with it
	// on.
	CritPath bool
}

// Validate reports the first field of cfg that no run accepts: a
// Scheme or Workload no registry knows (empty ones are left to the
// caller), a negative N, ValueSize, CommitWindow or Sockets, Cores outside
// 0..slpmt.MaxCores, a Mix on more than one core (its op stream is one
// core's), or more than logfmt.MaxGroupCores cores under group commit
// (CommitWindow > 1), whose descriptor is one line. Zero keeps
// meaning the default everywhere. The error names the field by the
// command-line flag that sets it (slpmtbench and slpmtcrash name them
// alike), so the CLIs print it as a flag error.
func (cfg RunConfig) Validate() error {
	switch {
	case cfg.Scheme != "" && !slices.Contains(slpmt.Schemes(), cfg.Scheme):
		return fmt.Errorf("-scheme %s: unknown scheme (have %v)", cfg.Scheme, slpmt.Schemes())
	case cfg.Workload != "" && !slices.Contains(workloads.Names(), cfg.Workload):
		return fmt.Errorf("-workload %s: unknown workload (have %v)", cfg.Workload, workloads.Names())
	}
	for _, f := range []struct {
		flag string
		v    int
	}{{"-n", cfg.N}, {"-value", cfg.ValueSize}, {"-commit-window", cfg.CommitWindow}, {"-sockets", cfg.Sockets}} {
		if f.v < 0 {
			return fmt.Errorf("%s %d: must not be negative (0 = the default)", f.flag, f.v)
		}
	}
	switch {
	case cfg.Cores < 0 || cfg.Cores > slpmt.MaxCores:
		return fmt.Errorf("-cores %d: must be 0..%d (0 = one core)", cfg.Cores, slpmt.MaxCores)
	case cfg.Cores > 1 && cfg.Mix != (ycsb.Mix{}):
		return fmt.Errorf("-cores %d: the %s mix runs on one core", cfg.Cores, cfg.Mix.Name)
	case cfg.CommitWindow > 1 && cfg.Cores > logfmt.MaxGroupCores:
		return fmt.Errorf("-cores %d: group commit (commit window %d) supports at most %d cores",
			cfg.Cores, cfg.CommitWindow, logfmt.MaxGroupCores)
	}
	return nil
}

// Result is the outcome of one benchmark execution.
type Result struct {
	RunConfig
	// Cycles is the simulated time of the measured region (the N
	// operations plus the final lazy drain).
	Cycles uint64
	// Counters is the counter delta over the measured region.
	Counters stats.Counters
	// Summary holds the trace-derived latency percentiles; zero unless
	// the run was traced (Trace, Metrics, StreamDir or CritPath set).
	Summary trace.Summary
	// Causes is the cycle-attribution breakdown of the measured region,
	// snapshotted before verification; nil unless Profile was set. Run
	// panics if it is not conserved (each core's causes sum to its
	// clock advance), so every returned breakdown is. A pointer keeps
	// Result comparable with ==.
	Causes *profile.Breakdown
	// PerSocket holds the per-socket device statistics of a
	// multi-socket run (enqueue counts, stall cycles, occupancy); nil
	// on single-device runs. A pointer keeps Result comparable.
	PerSocket *SocketBreakdown
	// Intervals is the telemetry interval series of a streamed run
	// (StreamDir set); nil otherwise. A pointer keeps Result
	// comparable.
	Intervals *IntervalSeries
	// CritPath is the causal critical-path analysis of the measured
	// region: the path, slack top, what-ifs and hot lines, with the
	// DAG's size but not the DAG itself; nil unless RunConfig.CritPath
	// was set. The conservation contract (path length == Cycles,
	// per-cause shares sum to the path) is checked before the result is
	// returned. A pointer keeps Result comparable.
	CritPath *critpath.Analysis
	// VerifyErr is non-nil if the post-run invariant check failed.
	VerifyErr error
}

// PMWriteBytes is the persistent-memory write traffic of the run.
func (r Result) PMWriteBytes() uint64 { return r.Counters.PMWriteBytes() }

// SocketBreakdown wraps the per-socket device statistics of one run so
// Result can carry them behind a comparable pointer.
type SocketBreakdown struct {
	Stats []pmem.SocketStats
}

// IntervalSeries wraps a streamed run's telemetry snapshots so Result
// can carry them behind a comparable pointer.
type IntervalSeries struct {
	Intervals []stream.Interval
}

// Run executes one benchmark on a Cores-wide cluster (0 or 1 = one
// core): the structure is built (and a Mix's table preloaded) once on
// core 0, the deterministic op stream is sharded round-robin across the
// cores (see Shard), and the per-core streams run under the cluster's
// deterministic interleaver, each op through workloads.Apply. The
// measured region starts at a clock barrier after setup and ends when
// the last core finishes its shard plus the final lazy drain, so Cycles
// is the parallel makespan; Counters is the merged per-core delta.
// Results are exactly reproducible for a given (config, seed).
func Run(cfg RunConfig) Result {
	cores := max(cfg.Cores, 1)
	w := workloads.MustNew(cfg.Workload)
	var mc machine.Config
	mc.PM.Banks = cfg.Banks
	mc.PM.WPQBytes = cfg.WPQBytes
	// The caller's tracer, or one StreamRingEvents ring for a Metrics,
	// CritPath or StreamDir run: full detail unless only Metrics asks,
	// since the critical path needs charges, stores, coherence and
	// signature hits.
	tr := cfg.Trace
	if tr == nil && (cfg.Metrics || cfg.CritPath || cfg.StreamDir != "") {
		tr = trace.New(StreamRingEvents)
		if cfg.Metrics && !cfg.CritPath {
			tr.SetMask(trace.MetricsMask())
		}
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
	load := ycsb.Load{N: cfg.N, ValueSize: cfg.ValueSize, Seed: cfg.Seed}
	// inserted is every insert the run makes outside ops: the load's,
	// or a mix's preload. A mix's ops then change that table.
	inserted := load
	var keys []uint64
	var ops []ycsb.MixOp
	if cfg.Mix == (ycsb.Mix{}) {
		keys = load.Keys()
	} else {
		// Preload the mix's table on core 0, outside the measured region.
		inserted = cfg.Mix.Preload(load)
		if err := inserted.Each(func(k uint64, v []byte) error {
			return w.Insert(cl.Use(0), k, v)
		}); err != nil {
			panic(fmt.Sprintf("bench: %s/%s preload: %v", cfg.Scheme, cfg.Workload, err))
		}
		ops = cfg.Mix.Ops(load)
	}
	// Seal any epoch setup (and a preload) left open so the measured
	// region starts at a durability boundary and carries none of their
	// deferred work (both run on core 0 only; a grouped close seals
	// every core).
	cl.Use(0).FinishEpoch()

	start := cl.Stats()
	startClk := cl.SyncClocks()
	// The topology is the occupancy surface: it covers every socket's
	// queue and delegates to the one device on single-socket machines.
	// The window restarts at the measured region's boundary.
	topo := cl.Plat.Topo
	topo.ResetOccupancy(startClk)
	var pl *pipeline
	if tr != nil {
		// Drop setup events.
		tr.Reset()
		if tr != cfg.Trace || cfg.StreamDir != "" {
			// Attach the consumers after the boundary so they see
			// exactly the measured region.
			pl = attachStream(cfg, tr)
		}
	}
	if prof != nil {
		// Drop setup charges: the breakdown covers the measured region.
		prof.Reset()
	}
	// The load streams its values through one buffer rather than
	// generating every op up front.
	var value []byte
	err := Shard(cl, max(len(keys), len(ops)), func(sys *slpmt.System, i int) error {
		if ops != nil {
			return workloads.Apply(w, sys, ops[i])
		}
		value = load.ValueInto(value, keys[i])
		return workloads.Apply(w, sys, ycsb.MixOp{Kind: ycsb.OpInsert, Key: keys[i], Value: value})
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %s/%s %s: %v", cfg.Scheme, cfg.Workload, cmp.Or(cfg.Mix.Name, "insert"), err))
	}
	// Account deferred lazy persists inside the measured region so lazy
	// schemes are not credited with traffic that merely moved past the
	// measurement boundary.
	cl.DrainLazy()

	merged := cl.Stats()
	res := Result{
		RunConfig: cfg,
		Cycles:    cl.MaxClk() - startClk,
		Counters:  merged.Delta(start),
	}
	// Retire entries that finished before the region's end so drain
	// events and the occupancy integral cover the whole interval.
	topo.QueueDepth(cl.MaxClk())
	if cores > 1 {
		// The parallel phase's WPQ pressure is the scaling story, so a
		// multi-core run reports the gauges whether or not it is traced.
		res.Counters.WPQOccMaxBytes, res.Counters.WPQOccAvgBytes = topo.OccupancyStats()
	}
	if tr != nil {
		reduceTrace(&res, tr, pl, topo)
	}
	if topo.Sockets() > 1 {
		res.PerSocket = &SocketBreakdown{Stats: topo.SocketStats()}
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
		if err := res.Causes.Conserved(); err != nil {
			panic(fmt.Sprintf("bench: %s/%s: %v", cfg.Scheme, cfg.Workload, err))
		}
	}
	if cfg.Verify {
		if tr != nil {
			// The region is over: keep verification's loads out of the
			// ring, then give the tracer back its filter.
			defer tr.SetMask(tr.Mask())
			tr.SetMask(0)
		}
		oracle := inserted.Oracle()
		for i := range ops {
			ops[i].ApplyTo(oracle)
		}
		res.VerifyErr = w.Check(cl.Use(0), oracle)
	}
	return res
}

// Speedup returns base.Cycles / r.Cycles.
func Speedup(baseline, r Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// TrafficReduction returns the write-traffic reduction of r relative to
// the baseline, as a fraction (0.35 = 35% less traffic).
func TrafficReduction(baseline, r Result) float64 {
	b := float64(baseline.PMWriteBytes())
	if b == 0 {
		return 0
	}
	return 1 - float64(r.PMWriteBytes())/b
}

// GeoMean returns the geometric mean of xs (0 for empty input).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		prod *= x
	}
	return math.Pow(prod, 1/float64(len(xs)))
}

// Table renders a column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// F formats a float with 2 decimals; Fx appends an "x" (speedup), Pct
// renders a percentage.
func F(x float64) string   { return fmt.Sprintf("%.2f", x) }
func Fx(x float64) string  { return fmt.Sprintf("%.2fx", x) }
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
