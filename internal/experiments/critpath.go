package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/schemes"
)

// critPathCores and critPathWindows are the cores x commit-window grid
// the critpath experiment sweeps. The sweep is intentionally smaller
// than ScalingCores x WindowSweep: every cell traces in full detail
// through the causal analyzer, so the grid covers the corners
// that matter — serial vs contended cores, per-transaction vs
// amortized windows.
var (
	critPathCores   = []int{1, 2, 4}
	critPathWindows = []int{1, 16}
)

// critPathHotN is how many contended lines the hot-line table shows.
const critPathHotN = 5

// CritPath runs the causal critical-path study: SLPMT on the lazy
// hashtable kernel over the cores x W grid, every cell analyzed by the
// blocking-DAG blame walk. Four views come out:
//
//   - the conservation contract per cell (path length == makespan,
//     cross-core hops) — the analyzer's soundness, printed so a broken
//     invariant is visible in the artifact, not just a panic;
//   - the dominant critical cause per cell with its critical share vs
//     raw core-cycle share — the wall the cell is actually serialized
//     on, vs what a flat profile would blame;
//   - the standard what-if projections (commit flush async, infinite
//     WPQ, remote hops zeroed, W->inf) as Amdahl-style speedup bounds;
//   - the W->inf projection from the W=1 cell checked against the
//     measured W=1 -> W=16 speedup under identical parameters — the
//     projection must bound/bracket what group commit actually buys.
//
// The final table ranks the hottest contended cache lines of the
// 2-core W=1 cell.
func CritPath(out io.Writer, base bench.RunConfig) ([]bench.Result, error) {
	const workload = "hashtable"

	key := func(c, win int) bench.RunConfig {
		cfg := cell(base, schemes.SLPMT, workload)
		cfg.Cores = c
		cfg.CommitWindow = win
		cfg.CritPath = true
		return cfg
	}
	cfgs := make([]bench.RunConfig, 0, len(critPathCores)*len(critPathWindows))
	for _, c := range critPathCores {
		for _, win := range critPathWindows {
			cfgs = append(cfgs, key(c, win))
		}
	}
	var sw sweep
	if _, err := sw.add(bench.RunAll(cfgs)); err != nil {
		return nil, err
	}

	tc := bench.NewTable(
		fmt.Sprintf("CritPath: conservation contract (SLPMT/%s, %dB values, %d ops)",
			workload, valueOf(base), opsOf(base)),
		"cores", "W", "makespan", "path len", "hops", "dag nodes", "wait edges")
	td := bench.NewTable(
		"CritPath: dominant critical cause (critical share vs raw core-cycle share)",
		"cores", "W", "cause", "crit", "raw")
	tw := bench.NewTable(
		"CritPath: what-if speedup bounds (causes zeroed on every core)",
		"cores", "W", "commit-flush-async", "wpq-infinite", "remote-zeroed", "window-inf")
	for _, c := range critPathCores {
		for _, win := range critPathWindows {
			an := sw.at(key(c, win)).CritPath
			ck := "ok"
			if err := an.Check(); err != nil {
				ck = err.Error()
			}
			tc.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", win),
				fmt.Sprintf("%d", an.Makespan),
				fmt.Sprintf("%d (%s)", an.PathLen, ck),
				fmt.Sprintf("%d", an.Hops),
				fmt.Sprintf("%d", an.Nodes), fmt.Sprintf("%d", an.Edges))

			cause, crit, raw := dominantCause(an.PathCycles, an.RawCycles)
			td.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", win),
				cause, bench.Pct(crit), bench.Pct(raw))

			row := []string{fmt.Sprintf("%d", c), fmt.Sprintf("%d", win)}
			for _, p := range an.WhatIf {
				row = append(row, bench.Fx(p.Speedup))
			}
			tw.AddRow(row...)
		}
	}
	fmt.Fprintln(out, tc)
	fmt.Fprintln(out, td)
	fmt.Fprintln(out, tw)

	// The projection-vs-measurement cross-check: window-inf predicted
	// from the W=1 critical path, against the speedup W=16 actually
	// delivered. The projection is an upper bound at a fixed overlap
	// (it zeroes ordering persists but cannot model the re-overlap a
	// real window change causes), so the two need not match — they must
	// tell the same story, and the table makes the gap inspectable.
	tp := bench.NewTable(
		"CritPath: W->inf projection (from the W=1 path) vs measured W=16 speedup",
		"cores", "projected", "measured W=16", "ratio")
	for _, c := range critPathCores {
		one := sw.at(key(c, 1))
		proj := windowInf(one.CritPath)
		meas := bench.Speedup(one, sw.at(key(c, 16)))
		ratio := 0.0
		if meas != 0 {
			ratio = proj / meas
		}
		tp.AddRow(fmt.Sprintf("%d", c), bench.Fx(proj), bench.Fx(meas), bench.Fx(ratio))
	}
	fmt.Fprintln(out, tp)

	// Hot lines of the contended per-transaction cell (2 cores, W=1):
	// the root-count line all cores update should dominate.
	an := sw.at(key(2, 1)).CritPath
	th := bench.NewTable(
		fmt.Sprintf("CritPath: hottest contended lines (2 cores, W=1; top %d of %d)",
			critPathHotN, an.TotalLines),
		"line", "score", "coh", "ping-pong", "stalls", "sig", "ser.cycles")
	for i, h := range an.HotLines {
		if i >= critPathHotN {
			break
		}
		th.AddRow(fmt.Sprintf("%#x", h.Addr),
			fmt.Sprintf("%d", h.Score()),
			fmt.Sprintf("%d", h.Transfers), fmt.Sprintf("%d", h.PingPong),
			fmt.Sprintf("%d", h.Stalls), fmt.Sprintf("%d", h.SigHits),
			fmt.Sprintf("%d", h.SerCycles()))
	}
	fmt.Fprintln(out, th)
	fmt.Fprintln(out, "(critical share is where the makespan went; raw share is where core-cycles")
	fmt.Fprint(out, " went — work off the path can dominate raw and still be free to remove)\n")
	return sw.results, nil
}

// dominantCause picks the cause carrying the most critical-path cycles
// and returns its name with the critical and raw shares.
func dominantCause(path, raw profile.Vector) (string, float64, float64) {
	best := profile.CauseNone
	for _, c := range profile.Causes() {
		if path[c] > path[best] {
			best = c
		}
	}
	crit, rawShare := 0.0, 0.0
	if t := path.Sum(); t != 0 {
		crit = float64(path[best]) / float64(t)
	}
	if t := raw.Sum(); t != 0 {
		rawShare = float64(raw[best]) / float64(t)
	}
	return best.String(), crit, rawShare
}

// windowInf returns the W->inf what-if speedup from an analysis.
func windowInf(an *critpath.Analysis) float64 {
	for _, p := range an.WhatIf {
		if p.Name == "window-inf" {
			return p.Speedup
		}
	}
	return 0
}
