package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
)

// BreakdownCores is the core counts the breakdown experiment profiles.
var BreakdownCores = []int{1, 2}

// BreakdownSchemes is the designs the attribution study decomposes:
// the eager baseline, the unbuffered logger, the full design, and its
// redo variant together exercise every attribution path (tiered and
// direct log sinks, undo and redo commit stages, lazy drains).
func BreakdownSchemes() []string {
	return []string{schemes.FG, schemes.EDE, schemes.SLPMT, schemes.SLPMTRedo}
}

// Breakdown runs the cycle-attribution study: every scheme × kernel ×
// core count executes with the profiler attached, and each run's
// cycles are decomposed into the exhaustive cause taxonomy
// (internal/profile). The table reports the share of attributed
// core-cycles per cause group; bench.Run checks conservation (sum of
// causes == each core's clock advance) on every cell, so a run that
// loses or double-charges cycles fails the experiment rather than
// printing a misleading table.
func Breakdown(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	ss := BreakdownSchemes()
	ws := workloads.Kernels()

	cfgs := make([]bench.RunConfig, 0, len(ss)*len(ws)*len(BreakdownCores))
	for _, s := range ss {
		for _, w := range ws {
			for _, c := range BreakdownCores {
				cfg := base
				cfg.Scheme = s
				cfg.Workload = w
				cfg.Cores = c
				cfg.Profile = true
				cfgs = append(cfgs, cfg)
			}
		}
	}
	results, err := sw.run(cfgs)
	if err != nil {
		return nil, err
	}

	groups := profile.Groups()
	cols := append([]string{"scheme", "workload", "cores"}, groups...)
	tb := bench.NewTable(
		fmt.Sprintf("Breakdown: cycle attribution by cause group (%% of attributed core-cycles, %dB values, %d ops)",
			valueOf(base), opsOf(base)),
		cols...)
	for _, r := range results {
		by := r.Causes.ByGroup()
		row := []string{r.Scheme, r.Workload, fmt.Sprintf("%d", r.Cores)}
		for _, g := range groups {
			row = append(row, bench.Pct(share(r, by[g])))
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(out, tb)
	fmt.Fprintln(out, "(groups: compute | cache = hit/miss/fill latencies | coherence = snoops+writebacks |")
	fmt.Fprintln(out, " log = append/persist/sync | commit = marker+data flush | lazy = deferred drains |")
	fmt.Fprint(out, " wpq = enqueue + queue-full stalls + sync persists; conservation checked per core)\n")
	return sw.results, nil
}
