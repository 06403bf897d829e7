package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
)

// ScalingCores is the core counts the scaling experiment sweeps.
var ScalingCores = []int{1, 2, 4, 8}

// ScalingSchemes is the hardware designs the scaling experiment
// compares (the paper's main transaction schemes; FG is omitted — its
// per-word persists saturate the device long before core count
// matters).
func ScalingSchemes() []string {
	return []string{schemes.SLPMT, schemes.ATOM, schemes.EDE}
}

// Scaling runs the core-scaling study the single-core paper setup
// cannot express: each scheme × kernel runs at 1/2/4/8 cores, the
// deterministic YCSB stream sharded round-robin across cores that
// share the structure, the LLC, and the PM device. Reported per core
// count: parallel speedup over the 1-core run (makespan ratio) and PM
// write traffic per operation (bytes). Traffic is work-conserving, so
// per-op traffic quantifies the coherence/contention overhead of
// scaling, while speedup shows where the shared write-pending queue
// becomes the bottleneck.
func Scaling(out io.Writer, base bench.RunConfig) ([]bench.Result, error) {
	ss := ScalingSchemes()
	ws := workloads.Kernels()

	key := func(s, w string, c int) bench.RunConfig {
		cfg := cell(base, s, w)
		cfg.Cores = c
		// Interval metrics feed the latency/occupancy tables and the
		// profiler feeds the WPQ-share table below (both
		// observation-only: timing is unchanged).
		cfg.Metrics = true
		cfg.Profile = true
		return cfg
	}
	cfgs := make([]bench.RunConfig, 0, len(ss)*len(ws)*len(ScalingCores))
	for _, s := range ss {
		for _, w := range ws {
			for _, c := range ScalingCores {
				cfgs = append(cfgs, key(s, w, c))
			}
		}
	}
	var sw sweep
	if _, err := sw.add(bench.RunAll(cfgs)); err != nil {
		return nil, err
	}

	cols := []string{"scheme", "workload"}
	for _, c := range ScalingCores {
		cols = append(cols, fmt.Sprintf("%dc", c))
	}
	tsp := bench.NewTable(
		fmt.Sprintf("Scaling: parallel speedup over 1 core (%dB values, %d ops, shared structure)",
			valueOf(base), opsOf(base)),
		cols...)
	ttr := bench.NewTable(
		"Scaling: PM write traffic per op (bytes)",
		cols...)
	tlat := bench.NewTable(
		"Scaling: commit latency percentiles (cycles, p50/p95/p99)",
		cols...)
	tocc := bench.NewTable(
		"Scaling: WPQ occupancy (bytes, high-water/time-weighted mean)",
		cols...)
	twpq := bench.NewTable(
		"Scaling: cycle share spent on the WPQ (enqueue + queue-full stalls + sync persists)",
		cols...)
	tsig := bench.NewTable(
		"Scaling: lazy-conflict pressure (signature hits / txid cross-accesses / forced lazy-line persists)",
		cols...)
	for _, s := range ss {
		for _, w := range ws {
			rowS := []string{s, w}
			rowT := []string{s, w}
			rowL := []string{s, w}
			rowO := []string{s, w}
			rowW := []string{s, w}
			rowG := []string{s, w}
			one := sw.at(key(s, w, 1))
			for _, c := range ScalingCores {
				r := sw.at(key(s, w, c))
				rowS = append(rowS, bench.Fx(bench.Speedup(one, r)))
				rowT = append(rowT, bench.F(float64(r.PMWriteBytes())/float64(opsOf(base))))
				rowL = append(rowL, fmt.Sprintf("%d/%d/%d",
					r.Summary.CommitP50, r.Summary.CommitP95, r.Summary.CommitP99))
				rowO = append(rowO, fmt.Sprintf("%d/%d",
					r.Counters.WPQOccMaxBytes, r.Counters.WPQOccAvgBytes))
				rowW = append(rowW, bench.Pct(wpqShare(r)))
				rowG = append(rowG, fmt.Sprintf("%d/%d/%d",
					r.Counters.SignatureHits, r.Counters.TxIDCrossAccess, r.Counters.LazyLinePersists))
			}
			tsp.AddRow(rowS...)
			ttr.AddRow(rowT...)
			tlat.AddRow(rowL...)
			tocc.AddRow(rowO...)
			twpq.AddRow(rowW...)
			tsig.AddRow(rowG...)
		}
	}
	fmt.Fprintln(out, tsp)
	fmt.Fprintln(out, ttr)
	fmt.Fprintln(out, tlat)
	fmt.Fprintln(out, tocc)
	fmt.Fprintln(out, twpq)
	fmt.Fprintln(out, tsig)

	fmt.Fprintln(out, "(cores share one structure, LLC, and PM write-pending queue; the")
	fmt.Fprint(out, " deterministic interleaver makes every cell exactly reproducible)\n")
	return sw.results, nil
}

// wpqShare is the fraction of the run's attributed core-cycles spent
// against the device write queue (the "wpq" cause group), the direct
// measure of write-bandwidth saturation.
func wpqShare(r bench.Result) float64 {
	return share(r, r.Causes.ByGroup()["wpq"])
}

// share is cycles' fraction of the run's attributed core-cycles (0 on
// a run that attributed none).
func share(r bench.Result, cycles uint64) float64 {
	total := r.Causes.TotalCycles()
	if total == 0 {
		return 0
	}
	return float64(cycles) / float64(total)
}
