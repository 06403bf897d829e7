// Command slpmtbench regenerates the paper's evaluation figures on the
// simulated platform.
//
// Usage:
//
//	slpmtbench -experiment fig8      # one experiment (-h lists the registry's names)
//	slpmtbench -experiment all       # every experiment, in registry order
//
// -n, -value and -seed set the workload parameters, -cores the
// simulated core count (sharded key streams, deterministic
// interleaving) and -parallel the worker count (0 = GOMAXPROCS;
// results are identical at any setting). -json writes a BENCH_<name>.json
// per experiment, with the cycles_by_cause breakdown; -compare checks
// every value of every result in it against the committed baseline in
// a directory and exits nonzero on any difference (the CI
// perf-regression gate; a change of the model is accepted by running
// make baseline and naming the cause of each moved value in
// CHANGES.md); -cpuprofile and -memprofile capture pprof profiles of
// the sweep.
//
// Setting -workload or -scheme (a comma list or "all"), or a section
// flag, selects one run of each scheme instead. Each prints its
// counter block (cycles, PM write traffic, cycles/op, every counter),
// then the sections asked for: -flame (cycle attribution, plus folded
// stacks for flamegraph tools), and, for a run that -trace-stream,
// -trace or -critpath traces, from its SLPSEG01 binlog the latency
// summary and WPQ series, -trace (Perfetto JSON), the persist-order
// sanitizer's report (the §III rules; nonzero exit on a violation) and
// -critpath (blame, slack and hot lines of the makespan's causal
// critical path). The binlog stays in -trace-stream's directory, with
// NDJSON telemetry and critpath.txt, or in a temporary one. The traced
// gate of scripts/check.sh is one such run:
//
//	slpmtbench -workload hashtable -cores 2 -n 300 -value 64 -trace-stream out/ \
//		-critpath -hotlines 10 -trace out/sample-trace.json -flame out/hashtable-2c.folded
//
// -replay reads a saved binlog without running anything: its segment
// headers and first -records events (-follow tails a stream still
// being written), then the same sections as the live run, byte for
// byte:
//
//	slpmtbench -replay out/ -critpath -hotlines 10
//
// The three modes exclude each other, and a flag the chosen mode does
// not read is an error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/experiments"
	"github.com/persistmem/slpmt/internal/report"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
	"github.com/persistmem/slpmt/internal/ycsb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "slpmtbench: %v\n", err)
		os.Exit(1)
	}
}

// runFlags are the flags every run-producing mode reads.
const runFlags = "n value seed cores commit-window sockets remote-nanos parallel "

// modeFlags lists, per mode, the flags it reads; setting any other one
// is an error.
var modeFlags = map[string]string{
	"-experiment":  runFlags + "experiment json compare cpuprofile memprofile",
	"a single run": runFlags + "workload scheme writelat trace trace-stream interval critpath hotlines flame",
	"-replay":      "replay records follow trace critpath hotlines",
}

// run parses args and runs the selected experiments, single run or
// replay, printing to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slpmtbench", flag.ExitOnError)
	var (
		exp      = fs.String("experiment", "all", "experiment to run ("+strings.Join(experiments.Names(), ", ")+", all)")
		n        = fs.Int("n", ycsb.DefaultOps, "insert operations per run")
		value    = fs.Int("value", 256, "value size in bytes")
		seed     = fs.Uint64("seed", 0, "key-stream seed (0 = default)")
		cores    = fs.Int("cores", 1, "simulated core count (scaling sweeps its own counts)")
		window   = fs.Int("commit-window", 0, "group-commit window W (0 or 1 = per-transaction protocol; the window experiment sweeps its own values)")
		parallel = fs.Int("parallel", 0, "worker count for experiment grids and a single run's schemes (0 = GOMAXPROCS)")
		jsonOut  = fs.Bool("json", false, "write machine-readable BENCH_<experiment>.json per experiment")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
		tracePth = fs.String("trace", "", "single run or replay: export its events to this path as Perfetto JSON")
		streamD  = fs.String("trace-stream", "", "single run: keep its SLPSEG01 binlog, telemetry and critpath report in this directory (a traced run prints its persist-order sanitizer report and exits nonzero on a violation)")
		interval = fs.Uint64("interval", 0, "telemetry snapshot interval in cycles of a -trace-stream run (0 = default)")
		critPath = fs.Bool("critpath", false, "single run or replay: print its causal critical path (blame/slack/hot-line report)")
		hotlines = fs.Int("hotlines", 10, fmt.Sprintf("hot lines to list in the -critpath report (1..%d)", critpath.MaxHotLines))
		flamePth = fs.String("flame", "", "single run: print its cycle attribution and write folded stacks to this path")
		compare  = fs.String("compare", "", "check every result value of each experiment's BENCH json against <dir>/BENCH_<experiment>.json and exit nonzero on any difference (implies -json)")
		workload = fs.String("workload", "hashtable", "workload of the single run")
		scheme   = fs.String("scheme", "SLPMT", "schemes of the single run: a comma list or \"all\"")
		writeLat = fs.Uint64("writelat", 0, "single run: PM write latency override in ns (0 = the platform's)")
		sockets  = fs.Int("sockets", 0, "PM sockets: each is its own device behind the interconnect distance matrix (0 or 1 = single device; the numa experiment sweeps its own counts)")
		remoteNs = fs.Uint64("remote-nanos", 0, "per-hop remote persist-enqueue latency in ns, remote fills pay double (0 = defaults; needs -sockets > 1)")
		replayD  = fs.String("replay", "", "read this saved SLPSEG01 binlog directory instead of running anything")
		records  = fs.Int("records", 16, "replay: events to print")
		follow   = fs.Bool("follow", false, "replay: tail a stream still being written; reads it once the writer closes it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The mode: -replay, else a single run if a flag of one is set, else
	// -experiment. The modes exclude each other because each reads only
	// its own flags.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode := "-experiment"
	if set["replay"] {
		mode = "-replay"
	} else if slices.ContainsFunc(strings.Fields("workload scheme trace-stream flame trace critpath"),
		func(f string) bool { return set[f] }) {
		mode = "a single run"
	}

	bench.SetParallelism(*parallel)
	base := bench.RunConfig{N: *n, ValueSize: *value, Seed: *seed, Verify: true, Cores: *cores, CommitWindow: *window,
		Sockets: *sockets, RemoteNanos: *remoteNs}
	cfgs := []bench.RunConfig{base}
	if mode == "a single run" {
		names := strings.Split(*scheme, ",")
		if *scheme == "all" {
			names = slpmt.Schemes()
		}
		cfgs = cfgs[:0]
		for _, name := range names {
			cfg := base
			cfg.Scheme, cfg.Workload, cfg.PMWriteNanos = strings.TrimSpace(name), *workload, *writeLat
			cfgs = append(cfgs, cfg)
		}
	}
	// Field errors come first: they name the value at fault.
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(modeFlags[mode]), f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	switch {
	case len(stray) > 0:
		return fmt.Errorf("%s: not read by %s", strings.Join(stray, ", "), mode)
	case set["interval"] && *streamD == "":
		return errors.New("-interval needs -trace-stream")
	case set["hotlines"] && !*critPath:
		return errors.New("-hotlines needs -critpath")
	case *hotlines < 1 || *hotlines > critpath.MaxHotLines:
		return fmt.Errorf("-hotlines %d: must be 1..%d", *hotlines, critpath.MaxHotLines)
	case len(cfgs) > 1 && (*streamD != "" || *tracePth != "" || *flamePth != ""):
		return fmt.Errorf("-scheme %s: -trace-stream, -trace and -flame write one run's files; name one scheme", *scheme)
	case len(experiments.Ignores(*exp, base)) > 0:
		return fmt.Errorf("%s: -experiment %s ignores it", experiments.Ignores(*exp, base)[0], *exp)
	}

	one := single{streamDir: *streamD, interval: *interval, tracePath: *tracePth, flamePath: *flamePth,
		critpath: *critPath, hotlines: *hotlines}
	switch mode {
	case "a single run":
		return runSingle(out, cfgs, one)
	case "-replay":
		return replay(out, *replayD, *records, *follow, one)
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

	// "all" runs one experiment at a time, each followed by a blank
	// line, so -json can report each separately. They share one sweep,
	// so a cell two of them ask for is simulated once.
	names := []string{*exp}
	all := *exp == "all"
	if all {
		names = experiments.Names()
	}
	sw := new(experiments.Sweep)
	regressed, compared := 0, 0
	for _, name := range names {
		if err := runOne(out, sw, name, base, jsonDocs); err != nil {
			return err
		}
		if *compare != "" {
			ok, n, err := compareOne(out, *compare, name)
			if err != nil {
				return err
			}
			compared += n
			if !ok {
				regressed++
			}
		}
		if all {
			fmt.Fprintln(out)
		}
	}
	if *compare != "" {
		// A cell simulated twice shows here before it shows in wall time.
		fmt.Fprintf(out, "compared %d results from %d simulations\n", compared, sw.Runs())
	}
	if regressed > 0 {
		return fmt.Errorf("%d experiment(s) differ from the baselines in %s", regressed, *compare)
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

// runOne executes one experiment through sw, optionally writing every
// benchmark result it returns into BENCH_<name>.json. The document's
// host cost (wall time, allocations) covers only the cells sw
// simulated for this experiment, not those it looked up.
func runOne(out io.Writer, sw *experiments.Sweep, name string, base bench.RunConfig, jsonOut bool) error {
	// An explicit -experiment rejects the flags it ignores; inside "all"
	// it says so before its table.
	if ig := experiments.Ignores(name, base); len(ig) > 0 {
		fmt.Fprintf(out, "(%s ignores %s)\n", name, strings.Join(ig, ", "))
	}
	if !jsonOut {
		_, err := sw.Run(out, name, base)
		return err
	}
	// Machine-readable documents carry the cycle-attribution breakdown
	// (observation-only: the numbers match an unprofiled run exactly).
	base.Profile = true
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	results, err := sw.Run(out, name, base)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	rep := report.FromResults(name, bench.Parallelism(), wall,
		after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, results)
	path := report.Filename(name)
	if err := rep.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d results, %.0f ms wall)\n", path, rep.Runs, rep.WallMillis)
	return nil
}

// compareOne checks the experiment's just-written BENCH json against
// the committed baseline in dir, printing every difference, and returns
// whether it passed and how many results it compared.
func compareOne(out io.Writer, dir, name string) (bool, int, error) {
	basePath := filepath.Join(dir, report.Filename(name))
	baseline, err := report.Load(basePath)
	if err != nil {
		return false, 0, fmt.Errorf("baseline %s: %w (run 'make baseline' to regenerate the committed baselines)", basePath, err)
	}
	cand, err := report.Load(report.Filename(name))
	if err != nil {
		return false, 0, err
	}
	c := report.Compare(baseline, cand)
	fmt.Fprint(out, c.String())
	return c.Pass(), len(cand.Results), nil
}
