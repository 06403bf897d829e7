// Command slpmtbench regenerates the paper's evaluation figures on the
// simulated platform.
//
// Usage:
//
//	slpmtbench -experiment fig8      # kernel speedups + traffic (Fig. 8)
//	slpmtbench -experiment fig9      # line-granularity SLPMT (Fig. 9)
//	slpmtbench -experiment fig10     # value-size speedup sweep (Fig. 10)
//	slpmtbench -experiment fig11     # value-size traffic sweep (Fig. 11)
//	slpmtbench -experiment fig12     # write-latency sweep (Fig. 12)
//	slpmtbench -experiment fig13     # compiler vs manual annotations (Fig. 13)
//	slpmtbench -experiment fig14     # PMKV speedups (Fig. 14)
//	slpmtbench -experiment headline  # §VI summary numbers
//	slpmtbench -experiment ablation  # design-choice ablations (DESIGN.md §5)
//	slpmtbench -experiment model     # timing-model knob sensitivity
//	slpmtbench -experiment mixes     # YCSB A/B/C/E blends (extension)
//	slpmtbench -experiment scaling   # throughput/traffic vs core count (extension)
//	slpmtbench -experiment window    # group-commit window sensitivity (extension)
//	slpmtbench -experiment all       # everything
//
// Flags -n, -value and -seed override the workload parameters. -cores
// runs any experiment on a multi-core platform (sharded key streams,
// deterministic interleaving); the scaling experiment sweeps its own
// core counts.
// -parallel sets the worker count for the experiment grids (0 =
// GOMAXPROCS; results are identical at any setting). -json additionally
// writes a machine-readable BENCH_<experiment>.json per experiment
// (including the cycles_by_cause attribution breakdown), and
// -cpuprofile / -memprofile capture pprof profiles of the sweep.
//
// -compare diffs each experiment's fresh BENCH json against the
// committed baseline in the given directory (see baselines/) with
// per-metric tolerances, prints the delta table, and exits nonzero on
// drift — the CI perf-regression gate:
//
//	slpmtbench -experiment headline -json -compare baselines/
//
// -flame switches to single-run profiling mode: one run of -workload
// under -scheme executes with the cycle-attribution profiler attached,
// the per-cause breakdown prints to stdout, and folded stacks
// (scheme;workload;coreN;group;cause count) are written to the given
// path for flamegraph tools:
//
//	slpmtbench -workload hashtable -cores 2 -flame out.folded
//
// -trace switches to single-run tracing mode: instead of an experiment
// grid, one run of -workload under -scheme executes with the cycle-level
// tracer attached, the latency/WPQ metrics print to stdout, and the full
// event stream is exported to the given path as Perfetto/Chrome
// trace_event JSON (load it at https://ui.perfetto.dev). Binary capture
// is -trace-stream:
//
//	slpmtbench -workload hashtable -cores 2 -trace out.json
//
// -trace-stream switches to streaming single-run mode: the run's event
// stream spills into a chunked SLPSEG01 binlog under the given
// directory as it executes (memory stays bounded by the spill ring plus
// one segment buffer, so it scales to runs the in-memory ring cannot
// hold), live telemetry snapshots are written to telemetry.ndjson (one
// line per -interval cycles), and the printed latency/WPQ metrics come
// from the online streaming consumers. Tail the directory live with
// `slpmttrace -trace-stream dir -follow`. Combining with -sanitize
// replays the binlog through the persist-order checker instead of
// keeping the event stream in memory, and with -critpath feeds the
// binlog to the critical-path analyzer; the one traced gate run of
// scripts/check.sh and CI combines all three:
//
//	slpmtbench -workload hashtable -cores 2 -trace-stream out/ -interval 65536
//	slpmtbench -workload hashtable -cores 2 -trace-stream out/ -sanitize -critpath -hotlines 10
//
// -sanitize runs one -workload/-scheme execution under the persist-order
// sanitizer (stream.Sanitize): the run is traced with the sanitizer's
// kind mask and the event stream is replayed against the paper's §III
// ordering rules (log records durable before their data lines, commit
// marker ordering per log mode, WPQ FIFO retirement, lazy-drain
// completion before conflicting stores). Violations print to stdout and
// make the command exit nonzero:
//
//	slpmtbench -workload hashtable -cores 2 -sanitize
//
// -critpath runs one -workload/-scheme execution under the causal
// critical-path analyzer: the measured region's charge/wait streams are
// replayed into a cross-core blocking DAG and the report prints the
// makespan's critical path with a per-cause breakdown (critical share
// vs raw core-cycle share), the DAG slack ranking, what-if projections
// (commit flush async, WPQ infinite, remote hops zeroed, W→∞), and the
// hot-line contention observatory (-hotlines caps the listing). The
// conservation contract — critical-path length == measured makespan —
// is enforced, and the analysis is observation-only. Composing with
// -trace-stream feeds the analyzer from the on-disk binlog instead of
// the ring (and writes the report to <dir>/critpath.txt):
//
//	slpmtbench -workload hashtable -cores 2 -critpath -hotlines 5
//	slpmtbench -workload hashtable -cores 2 -trace-stream out/ -critpath
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/experiments"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/report"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "slpmtbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("experiment", "all", "experiment to run (fig8..fig14, headline, ablation, model, mixes, scaling, breakdown, window, numa, all)")
		n        = flag.Int("n", 1000, "insert operations per run")
		value    = flag.Int("value", 256, "value size in bytes")
		seed     = flag.Uint64("seed", 0, "key-stream seed (0 = default)")
		cores    = flag.Int("cores", 1, "simulated core count (scaling sweeps its own counts)")
		window   = flag.Int("commit-window", 0, "group-commit window W (0 or 1 = per-transaction protocol; the window experiment sweeps its own values)")
		parallel = flag.Int("parallel", 0, "worker count for experiment grids (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "write machine-readable BENCH_<experiment>.json per experiment")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")
		tracePth = flag.String("trace", "", "trace one run of -workload/-scheme and export its events to this path as Perfetto JSON")
		streamD  = flag.String("trace-stream", "", "stream one run of -workload/-scheme into an SLPSEG01 binlog directory (bounded memory; composes with -sanitize and -critpath)")
		interval = flag.Uint64("interval", 0, "telemetry snapshot interval in cycles for -trace-stream (0 = default)")
		sanitize = flag.Bool("sanitize", false, "replay one run of -workload/-scheme through the persist-order sanitizer (exit nonzero on violations)")
		critpath = flag.Bool("critpath", false, "run one -workload/-scheme execution under the causal critical-path analyzer and print the blame/slack/hot-line report (composes with -trace-stream)")
		hotlines = flag.Int("hotlines", 10, "hot lines to list in the -critpath report")
		flamePth = flag.String("flame", "", "profile one run of -workload/-scheme, print the cycle-attribution breakdown, and write folded stacks to this path")
		compare  = flag.String("compare", "", "diff each experiment's BENCH json against <dir>/BENCH_<experiment>.json and exit nonzero on regressions (implies -json)")
		workload = flag.String("workload", "hashtable", "workload for -trace/-sanitize/-flame mode")
		scheme   = flag.String("scheme", "SLPMT", "scheme for -trace/-sanitize/-flame mode")
		sockets  = flag.Int("sockets", 0, "PM sockets: each is its own device behind the interconnect distance matrix (0 or 1 = single device; the numa experiment sweeps its own counts)")
		remoteNs = flag.Uint64("remote-nanos", 0, "per-hop remote persist-enqueue latency in ns, remote fills pay double (0 = defaults; needs -sockets > 1)")
	)
	flag.Parse()

	bench.SetParallelism(*parallel)
	base := bench.RunConfig{N: *n, ValueSize: *value, Seed: *seed, Verify: true, Cores: *cores, CommitWindow: *window,
		Sockets: *sockets, RemoteNanos: *remoteNs}

	if *streamD != "" {
		base.Scheme = *scheme
		base.Workload = *workload
		return runStreamed(os.Stdout, base, *streamD, *interval, *sanitize, *critpath, *hotlines)
	}
	if *sanitize {
		base.Scheme = *scheme
		base.Workload = *workload
		return runSanitized(os.Stdout, base)
	}
	if *critpath {
		base.Scheme = *scheme
		base.Workload = *workload
		return runCritPath(os.Stdout, base, *hotlines)
	}
	if *tracePth != "" {
		base.Scheme = *scheme
		base.Workload = *workload
		return runTraced(os.Stdout, base, *tracePth)
	}
	if *flamePth != "" {
		base.Scheme = *scheme
		base.Workload = *workload
		return runFlame(os.Stdout, base, *flamePth)
	}
	jsonDocs := *jsonOut || *compare != ""

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Run "all" one experiment at a time (matching experiments.Run's own
	// loop, blank line included) so -json can report each separately.
	names := []string{*exp}
	trailingBlank := false
	if *exp == "all" {
		names = experiments.Names()
		trailingBlank = true
	}
	regressed := 0
	for _, name := range names {
		if err := runOne(name, base, jsonDocs); err != nil {
			return err
		}
		if *compare != "" {
			ok, err := compareOne(os.Stdout, *compare, name)
			if err != nil {
				return err
			}
			if !ok {
				regressed++
			}
		}
		if trailingBlank {
			fmt.Println()
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d experiment(s) drifted past tolerance of the baselines in %s", regressed, *compare)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// runTraced executes one benchmark with the full-detail tracer
// attached, prints the reduced metrics, and exports the event stream to
// path as Perfetto JSON.
func runTraced(out io.Writer, cfg bench.RunConfig, path string) error {
	tr := trace.New(trace.DefaultCapacity)
	cfg.Trace = tr
	r := bench.Run(cfg)
	if r.VerifyErr != nil {
		return fmt.Errorf("%s/%s failed verification: %v", cfg.Scheme, cfg.Workload, r.VerifyErr)
	}

	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	fmt.Fprintf(out, "traced run: %s/%s n=%d value=%dB cores=%d seed=%d\n",
		cfg.Scheme, cfg.Workload, r.N, r.ValueSize, cores, cfg.Seed)
	fmt.Fprintf(out, "cycles: %d\n", r.Cycles)
	fmt.Fprintf(out, "events: %d captured, %d dropped\n\n", r.Summary.Events, r.Summary.Dropped)
	fmt.Fprint(out, r.Summary.String())
	if r.WPQ != nil {
		fmt.Fprintf(out, "\nWPQ occupancy over the run (high-water %dB, mean %dB):\n",
			r.Counters.WPQOccMaxBytes, r.Counters.WPQOccAvgBytes)
		fmt.Fprint(out, r.WPQ.String())
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WritePerfetto(f, tr.Events(), trace.PerfettoOptions{}); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s (%d events)\n", path, tr.Len())
	return nil
}

// runSanitized executes one benchmark with a sanitizer-masked tracer
// and replays the event stream through the persist-order checker. Any
// violation (or a truncated stream, which would make the replay
// unsound) is an error.
func runSanitized(out io.Writer, cfg bench.RunConfig) error {
	tr := trace.New(trace.DefaultCapacity)
	tr.SetMask(trace.SanitizeMask())
	cfg.Trace = tr
	r := bench.Run(cfg)
	if r.VerifyErr != nil {
		return fmt.Errorf("%s/%s failed verification: %v", cfg.Scheme, cfg.Workload, r.VerifyErr)
	}

	zs := stream.NewSanitize()
	if _, err := stream.Feed(stream.Events(tr.Events()), zs); err != nil {
		return err
	}
	rep := zs.Report(tr.Dropped())
	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	fmt.Fprintf(out, "sanitized run: %s/%s n=%d value=%dB cores=%d seed=%d\n",
		cfg.Scheme, cfg.Workload, r.N, r.ValueSize, cores, cfg.Seed)
	fmt.Fprintf(out, "events: %d replayed, %d transactions, %d aborts\n",
		rep.Events, rep.Transactions, rep.Aborts)
	if rep.Truncated {
		return fmt.Errorf("trace ring overflowed (%d events dropped); the replay is unsound — reduce -n", tr.Dropped())
	}
	if !rep.Clean() {
		for _, v := range rep.Violations {
			fmt.Fprintf(out, "violation: %s\n", v)
		}
		return fmt.Errorf("%d persist-order violations", rep.Total)
	}
	fmt.Fprintln(out, "persist-order sanitizer: 0 violations")
	return nil
}

// runOne executes one experiment, optionally collecting every benchmark
// result it produces into BENCH_<name>.json.
func runOne(name string, base bench.RunConfig, jsonOut bool) error {
	if !jsonOut {
		return experiments.Run(os.Stdout, name, base)
	}
	// Machine-readable documents carry the cycle-attribution breakdown
	// (observation-only: the numbers match an unprofiled run exactly).
	base.Profile = true
	col := &bench.Collector{}
	bench.SetCollector(col)
	defer bench.SetCollector(nil)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := experiments.Run(os.Stdout, name, base)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	rep := report.FromResults(name, bench.Parallelism(), wall,
		after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, col.Results())
	path := report.Filename(name)
	if err := rep.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d results, %.0f ms wall)\n", path, rep.Runs, rep.WallMillis)
	return nil
}

// compareOne diffs the experiment's just-written BENCH json against the
// committed baseline in dir, printing the delta table.
func compareOne(out io.Writer, dir, name string) (bool, error) {
	basePath := filepath.Join(dir, report.Filename(name))
	baseline, err := report.Load(basePath)
	if err != nil {
		return false, fmt.Errorf("baseline %s: %w (run 'make baseline' to regenerate the committed baselines)", basePath, err)
	}
	cand, err := report.Load(report.Filename(name))
	if err != nil {
		return false, err
	}
	c := report.Compare(baseline, cand)
	fmt.Fprint(out, c.String())
	return c.Pass(), nil
}

// runFlame executes one profiled benchmark, prints the cycle
// attribution, and writes folded stacks (scheme;workload;core;group;
// cause count) for flamegraph tools.
func runFlame(out io.Writer, cfg bench.RunConfig, path string) error {
	cfg.Profile = true
	r := bench.Run(cfg)
	if r.VerifyErr != nil {
		return fmt.Errorf("%s/%s failed verification: %v", cfg.Scheme, cfg.Workload, r.VerifyErr)
	}
	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	fmt.Fprintf(out, "profiled run: %s/%s n=%d value=%dB cores=%d seed=%d\n",
		cfg.Scheme, cfg.Workload, r.N, r.ValueSize, cores, cfg.Seed)
	fmt.Fprintf(out, "cycles: %d\n", r.Cycles)
	if err := r.Causes.Conserved(); err != nil {
		return fmt.Errorf("attribution broke conservation: %w", err)
	}
	merged := r.Causes.Merged()
	total := merged.Sum()
	fmt.Fprintf(out, "attributed core-cycles: %d (conservation holds on all %d cores)\n\n", total, cores)
	for _, name := range r.Causes.SortedNames() {
		c, _ := profile.ByName(name)
		v := merged[c]
		fmt.Fprintf(out, "%6.2f%%  %-13s %12d  %s\n",
			100*float64(v)/float64(total), name, v, report.CauseHelp(name))
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := profile.WriteFolded(f, cfg.Scheme+";"+cfg.Workload, r.Causes); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s\n", path)
	return nil
}
