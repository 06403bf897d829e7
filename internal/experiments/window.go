package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
)

// WindowSweep is the commit-window axis W the sensitivity study runs:
// W=1 is the per-transaction protocol (bit-exact with the pre-epoch
// engine), larger windows amortize the per-transaction ordering
// persists (watermark sync, durability barrier, commit marker) over W
// committed transactions.
var WindowSweep = []int{1, 4, 16, 64}

// Window runs the group-commit sensitivity study: SLPMT across the
// kernel benchmarks at every scaling core count, sweeping the commit
// window W. Reported per (workload, cores): makespan speedup over the
// W=1 run under identical parameters, and the ordering-persist cycle
// share — the log.sync + log.epoch + commit.marker slice of the
// attribution profile, i.e. the "log.sync wall" the window is meant to
// break. Durability weakens to epoch boundaries as W grows; recovery
// still restores a transaction-consistent prefix (all-or-nothing per
// epoch), which the crash campaign checks separately.
func Window(out io.Writer, base bench.RunConfig) ([]bench.Result, error) {
	ws := workloads.Kernels()

	key := func(w string, c, win int) bench.RunConfig {
		cfg := cell(base, schemes.SLPMT, w)
		cfg.Cores = c
		cfg.CommitWindow = win
		cfg.Profile = true
		return cfg
	}
	cfgs := make([]bench.RunConfig, 0, len(ws)*len(ScalingCores)*len(WindowSweep))
	for _, w := range ws {
		for _, c := range ScalingCores {
			for _, win := range WindowSweep {
				cfgs = append(cfgs, key(w, c, win))
			}
		}
	}
	var sw sweep
	if _, err := sw.add(bench.RunAll(cfgs)); err != nil {
		return nil, err
	}

	cols := []string{"workload", "cores"}
	for _, win := range WindowSweep {
		cols = append(cols, fmt.Sprintf("W=%d", win))
	}
	tsp := bench.NewTable(
		fmt.Sprintf("Window: makespan speedup over W=1 (SLPMT, %dB values, %d ops)",
			valueOf(base), opsOf(base)),
		cols...)
	tsh := bench.NewTable(
		"Window: ordering-persist cycle share (log.sync + log.epoch + commit.marker)",
		cols...)
	for _, w := range ws {
		for _, c := range ScalingCores {
			rowS := []string{w, fmt.Sprintf("%d", c)}
			rowH := []string{w, fmt.Sprintf("%d", c)}
			one := sw.at(key(w, c, 1))
			for _, win := range WindowSweep {
				r := sw.at(key(w, c, win))
				rowS = append(rowS, bench.Fx(bench.Speedup(one, r)))
				rowH = append(rowH, bench.Pct(orderingShare(r)))
			}
			tsp.AddRow(rowS...)
			tsh.AddRow(rowH...)
		}
	}
	fmt.Fprintln(out, tsp)
	fmt.Fprintln(out, tsh)
	fmt.Fprintln(out, "(W=1 is the per-transaction protocol; durability moves to epoch")
	fmt.Fprint(out, " boundaries as W grows — see the crash campaign for the recovery story)\n")
	return sw.results, nil
}

// orderingShare is the fraction of the run's attributed core-cycles
// spent on per-transaction or per-epoch ordering persists: waiting on
// log durability (log.sync), the amortized epoch-close barrier
// (log.epoch), and writing commit markers (commit.marker).
func orderingShare(r bench.Result) float64 {
	by := r.Causes.ByName()
	return share(r, by["log.sync"]+by["log.epoch"]+by["commit.marker"])
}
