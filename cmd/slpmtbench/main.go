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
// The single-run flags -trace-stream, -trace, -sanitize, -critpath and
// -flame turn the command into one run of -workload under -scheme, and
// each adds a section to that run's output; they combine freely. A run
// that needs events streams them into an SLPSEG01 binlog (bounded
// memory at any -n): into the -trace-stream directory, with its NDJSON
// telemetry (one line per -interval cycles; tail it live with
// `slpmttrace -trace-stream dir -follow`), or into a temporary
// directory removed on exit. Every traced run prints the latency
// summary and WPQ series. -trace exports the binlog's events as
// Perfetto/Chrome trace_event JSON (load it at https://ui.perfetto.dev).
// -sanitize replays the binlog against the paper's §III persist
// ordering rules (log records durable before their data lines, commit
// marker ordering per log mode, WPQ FIFO retirement, lazy-drain
// completion before conflicting stores) and exits nonzero on a
// violation. -critpath prints the causal critical path of the
// makespan, whose length the harness checks against the measured
// cycles: per-cause blame, DAG slack, what-if projections and the
// -hotlines most contended lines; with -trace-stream the report also
// lands in <dir>/critpath.txt. -flame prints the cycle-attribution
// breakdown and writes folded stacks (scheme;workload;coreN;group;cause
// count) for flamegraph tools; alone, it runs untraced. A failed
// verification or sanitizer replay still writes every requested file
// before the command exits nonzero. The traced gate of
// scripts/check.sh and CI is one such run:
//
//	slpmtbench -workload hashtable -cores 2 -n 300 -value 64 -trace-stream out/ \
//		-sanitize -critpath -hotlines 10 -trace out/sample-trace.json -flame out/hashtable-2c.folded
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
	"github.com/persistmem/slpmt/internal/report"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "slpmtbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and runs the selected experiments or single-run
// mode.
func run(args []string) error {
	fs := flag.NewFlagSet("slpmtbench", flag.ExitOnError)
	var (
		exp      = fs.String("experiment", "all", "experiment to run (fig8..fig14, headline, ablation, model, mixes, scaling, breakdown, window, numa, all)")
		n        = fs.Int("n", 1000, "insert operations per run")
		value    = fs.Int("value", 256, "value size in bytes")
		seed     = fs.Uint64("seed", 0, "key-stream seed (0 = default)")
		cores    = fs.Int("cores", 1, "simulated core count (scaling sweeps its own counts)")
		window   = fs.Int("commit-window", 0, "group-commit window W (0 or 1 = per-transaction protocol; the window experiment sweeps its own values)")
		parallel = fs.Int("parallel", 0, "worker count for experiment grids (0 = GOMAXPROCS)")
		jsonOut  = fs.Bool("json", false, "write machine-readable BENCH_<experiment>.json per experiment")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
		tracePth = fs.String("trace", "", "single run: export its events to this path as Perfetto JSON")
		streamD  = fs.String("trace-stream", "", "single run: keep its SLPSEG01 binlog, telemetry and critpath report in this directory")
		interval = fs.Uint64("interval", 0, "telemetry snapshot interval in cycles of a traced single run (0 = default)")
		sanitize = fs.Bool("sanitize", false, "single run: replay it through the persist-order sanitizer (exit nonzero on violations)")
		critpath = fs.Bool("critpath", false, "single run: print its causal critical path (blame/slack/hot-line report)")
		hotlines = fs.Int("hotlines", 10, "hot lines to list in the -critpath report")
		flamePth = fs.String("flame", "", "single run: print its cycle attribution and write folded stacks to this path")
		compare  = fs.String("compare", "", "diff each experiment's BENCH json against <dir>/BENCH_<experiment>.json and exit nonzero on regressions (implies -json)")
		workload = fs.String("workload", "hashtable", "workload of the single run")
		scheme   = fs.String("scheme", "SLPMT", "scheme of the single run")
		sockets  = fs.Int("sockets", 0, "PM sockets: each is its own device behind the interconnect distance matrix (0 or 1 = single device; the numa experiment sweeps its own counts)")
		remoteNs = fs.Uint64("remote-nanos", 0, "per-hop remote persist-enqueue latency in ns, remote fills pay double (0 = defaults; needs -sockets > 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	bench.SetParallelism(*parallel)
	base := bench.RunConfig{N: *n, ValueSize: *value, Seed: *seed, Verify: true, Cores: *cores, CommitWindow: *window,
		Sockets: *sockets, RemoteNanos: *remoteNs}
	one := single{streamDir: *streamD, interval: *interval, tracePath: *tracePth, flamePath: *flamePth,
		sanitize: *sanitize, critpath: *critpath, hotlines: *hotlines}
	if one.on() {
		base.Scheme, base.Workload = *scheme, *workload
	}
	if err := base.Validate(); err != nil {
		return err
	}
	if one.on() {
		return runSingle(os.Stdout, base, one)
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
