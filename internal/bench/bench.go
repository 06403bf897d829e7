// Package bench is the experiment harness: it runs (scheme × workload ×
// parameter) grids of ycsb-load and renders the paper's figures as text
// tables (speedups over the FG baseline, persistent-memory write-traffic
// reductions, and sensitivity sweeps).
package bench

import (
	"fmt"
	"math"
	"slices"
	"sort"
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
	// N is the number of insert operations (0 = 1000).
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
	// Trace, when non-nil, attaches this tracer to the run's machine and
	// the result carries the reduced latency/WPQ metrics. The caller
	// owns the tracer (full event detail); setup events are cleared so
	// the ring holds the measured region. One tracer must not be shared
	// across concurrently executing runs (see SetParallelism).
	Trace *trace.Tracer
	// Metrics, when Trace is nil, attaches an internal metrics-masked
	// tracer (transaction lifecycle + WPQ kinds only) sized for
	// reduction rather than export, populating Result.Summary and
	// Result.WPQ without the caller managing a tracer.
	Metrics bool
	// Profile attaches a cycle-attribution profile to the run's machine
	// and populates Result.Causes with the measured region's breakdown.
	// Observation-only: cycles, counters and non-KCharge trace events
	// are identical with or without it.
	Profile bool
	// StreamDir, when non-empty, streams the measured region's trace to
	// an on-disk SLPSEG01 binlog in this directory: a spill sink is
	// attached so the ring never drops however long the run, the
	// Summary/WPQ reductions replay the binlog through the online
	// consumers (identical to the in-memory ones by construction), and
	// Result.Intervals carries the live telemetry series (also written
	// as NDJSON to StreamDir/telemetry.ndjson). Without Trace or
	// Metrics, a full-detail spill ring of StreamRingEvents is
	// attached. Observation-only: simulated cycles, counters, and
	// goldens are byte-identical with streaming on.
	StreamDir string
	// StreamInterval is the telemetry snapshot window in simulated
	// cycles (0 = the stream package default).
	StreamInterval uint64
	// CritPath replays the measured region's trace through the causal
	// critical-path analyzer and populates Result.CritPath. Implies a
	// cycle-attribution profile (the analysis consumes the KCharge
	// stream) and, without a caller tracer, attaches a full-detail one
	// (CritPathRingEvents; streamed runs replay the binlog instead, so
	// the ring size never matters there). Observation-only like Profile:
	// cycles, counters and goldens are byte-identical with it on.
	CritPath bool
}

// Validate reports the first field of cfg that no run accepts: a
// Scheme or Workload no registry knows (empty ones are left to the
// caller), a negative N, ValueSize, CommitWindow or Sockets, Cores outside
// 0..slpmt.MaxCores, or more than logfmt.MaxGroupCores cores under group
// commit (CommitWindow > 1), whose descriptor is one line. Zero keeps
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
	// inserts plus the final lazy drain).
	Cycles uint64
	// Counters is the counter delta over the measured region.
	Counters stats.Counters
	// Summary holds the trace-derived latency percentiles; zero unless
	// the run was traced (Trace or Metrics set).
	Summary trace.Summary
	// WPQ is the time-bucketed WPQ occupancy/stall series; nil unless
	// the run was traced. A pointer keeps Result comparable with ==.
	WPQ *trace.WPQSeries
	// Causes is the cycle-attribution breakdown of the measured region,
	// snapshotted before verification; nil unless Profile was set. A
	// pointer keeps Result comparable with ==.
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
	// region; nil unless RunConfig.CritPath was set. The conservation
	// contract (path length == Cycles, per-cause shares sum to the
	// path) is checked before the result is returned. A pointer keeps
	// Result comparable.
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

// runTracer resolves the tracer a run should attach: the caller's
// full-detail tracer, an internal metrics-masked one, or nil.
func runTracer(cfg RunConfig) *trace.Tracer {
	if cfg.Trace != nil {
		return cfg.Trace
	}
	if cfg.CritPath {
		// The analysis needs full event detail (charges, stores,
		// coherence, WPQ, signature hits) — a metrics-masked ring would
		// starve it. Streamed runs spill, so the capacity is only the
		// handoff granularity there.
		if cfg.StreamDir != "" {
			return trace.New(StreamRingEvents)
		}
		return trace.New(CritPathRingEvents)
	}
	if cfg.Metrics {
		tr := trace.New(trace.MetricsCapacity)
		tr.SetMask(trace.MetricsMask())
		return tr
	}
	return nil
}

// Run executes one benchmark on a Cores-wide cluster (0 or 1 = one
// core): the structure is built once on core 0, the deterministic key
// stream is sharded round-robin across the cores (see Shard), and the
// per-core insert streams run under the cluster's deterministic
// interleaver. The measured region starts at a clock barrier after
// setup and ends when the last core finishes its shard plus the final
// lazy drain, so Cycles is the parallel makespan; Counters is the
// merged per-core delta. Results are exactly reproducible for a given
// (config, seed).
func Run(cfg RunConfig) Result {
	cores := max(cfg.Cores, 1)
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
	// durability boundary and carries none of setup's deferred work
	// (setup runs on core 0 only; a grouped close seals every core).
	cl.Use(0).FinishEpoch()

	load := ycsb.Load{N: cfg.N, ValueSize: cfg.ValueSize, Seed: cfg.Seed}
	keys := load.Keys()
	start := cl.Stats()
	startClk := cl.SyncClocks()
	// The topology is the occupancy surface: it covers every socket's
	// queue and delegates to the one device on single-socket machines.
	// The window restarts at the measured region's boundary.
	topo := cl.Plat.Topo
	topo.ResetOccupancy(startClk)
	var sw *streamRun
	if tr != nil {
		// Drop setup events.
		tr.Reset()
		if cfg.StreamDir != "" {
			// Attach the binlog sink after the boundary so the stream
			// holds exactly the measured region.
			sw = attachStream(cfg, tr)
		}
	}
	if prof != nil {
		// Drop setup charges: the breakdown covers the measured region.
		prof.Reset()
	}
	var value []byte
	err := Shard(cl, len(keys), func(sys *slpmt.System, i int) error {
		value = load.ValueInto(value, keys[i])
		return w.Insert(sys, keys[i], value)
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %s/%s insert: %v", cfg.Scheme, cfg.Workload, err))
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
		reduceTrace(&res, tr, sw, topo)
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
	}
	if cfg.Verify {
		if tr != nil {
			// The region is over: keep verification's loads out of the
			// ring, then give the tracer back its filter.
			defer tr.SetMask(tr.Mask())
			tr.SetMask(0)
		}
		res.VerifyErr = w.Check(cl.Use(0), load.Oracle())
	}
	if c := collector.Load(); c != nil {
		c.Add(res)
	}
	return res
}

// Grid runs the cartesian product of schemes × workloads with shared
// parameters, returning results keyed [scheme][workload]. Cells run on
// the worker pool (see SetParallelism); the results are identical to a
// serial sweep. A failing cell panics, like Run.
func Grid(schemeNames, workloadNames []string, base RunConfig) map[string]map[string]Result {
	out, err := GridParallel(schemeNames, workloadNames, base)
	if err != nil {
		panic(err)
	}
	return out
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

// SortedKeys returns the sorted keys of a result map.
func SortedKeys(m map[string]Result) []string {
	out := make([]string, 0, len(m))
	for k := range m { //slpmt:determinism-ok: collected keys are sorted below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
