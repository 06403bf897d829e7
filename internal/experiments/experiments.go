// Package experiments implements the paper's evaluation section: each
// figure of §VI is regenerated as a parameter grid over the simulator
// and rendered as a text table with the quantities the paper plots.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
)

// registry lists every experiment in the order "all" runs them.
// Everything before "scaling" reproduces the paper's single-core
// evaluation unchanged; "scaling" (multi-core), "breakdown"
// (cycle-attribution profiling), "window" (group-commit sensitivity),
// "numa" (multi-device socket topology), and "critpath" (causal
// critical-path analysis) are extensions.
var registry = []struct {
	name string
	run  func(io.Writer, bench.RunConfig) error
}{
	{"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10}, {"fig11", Fig11}, {"fig12", Fig12},
	{"fig13", Fig13}, {"fig14", Fig14}, {"headline", Headline}, {"ablation", Ablation},
	{"model", Model}, {"mixes", Mixes}, {"scaling", Scaling}, {"breakdown", Breakdown},
	{"window", Window}, {"numa", Numa}, {"critpath", CritPath},
}

// Run executes the named experiment, or every one for "all", writing
// tables to w.
func Run(w io.Writer, name string, base bench.RunConfig) error {
	for _, e := range registry {
		if e.name == name {
			return e.run(w, base)
		}
	}
	if name != "all" {
		return fmt.Errorf("unknown experiment %q (have %s)", name, NamesHelp())
	}
	for _, e := range registry {
		if err := e.run(w, base); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Names returns the individual experiment names in the order "all" runs
// them.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// NamesHelp lists the names Run accepts, "all" last, for help and
// error text.
func NamesHelp() string { return strings.Join(append(Names(), "all"), ", ") }

// checkVerify fails fast if any run's invariant check failed. The scan
// order is deterministic so the reported failure (and therefore the
// harness output) is identical between serial and parallel sweeps.
func checkVerify(grid map[string]map[string]bench.Result) error {
	for _, s := range bench.SortedSchemes(grid) {
		m := grid[s]
		for _, w := range bench.SortedKeys(m) {
			if r := m[w]; r.VerifyErr != nil {
				return fmt.Errorf("%s/%s failed verification: %v", s, w, r.VerifyErr)
			}
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: speedup over the FG baseline (left) and
// persistent-memory write-traffic reduction over the baseline (right)
// for the kernel benchmarks under every evaluated scheme.
func Fig8(out io.Writer, base bench.RunConfig) error {
	ss := schemes.Evaluated()
	ws := workloads.Kernels()
	grid := bench.Grid(ss, ws, base)
	if err := checkVerify(grid); err != nil {
		return err
	}

	tb := bench.NewTable(
		fmt.Sprintf("Figure 8 (left): speedup over FG baseline (kernels, %dB values, %d ops)", valueOf(base), opsOf(base)),
		append([]string{"workload"}, ss...)...)
	tr := bench.NewTable(
		"Figure 8 (right): PM write-traffic reduction over FG baseline",
		append([]string{"workload"}, ss...)...)
	perScheme := map[string][]float64{}
	perSchemeTR := map[string][]float64{}
	for _, w := range ws {
		baseRes := grid[schemes.FG][w]
		rowS := []string{w}
		rowT := []string{w}
		for _, s := range ss {
			r := grid[s][w]
			sp := bench.Speedup(baseRes, r)
			red := bench.TrafficReduction(baseRes, r)
			rowS = append(rowS, bench.Fx(sp))
			rowT = append(rowT, bench.Pct(red))
			perScheme[s] = append(perScheme[s], sp)
			perSchemeTR[s] = append(perSchemeTR[s], red)
		}
		tb.AddRow(rowS...)
		tr.AddRow(rowT...)
	}
	gm := []string{"geomean"}
	am := []string{"mean"}
	for _, s := range ss {
		gm = append(gm, bench.Fx(bench.GeoMean(perScheme[s])))
		am = append(am, bench.Pct(mean(perSchemeTR[s])))
	}
	tb.AddRow(gm...)
	tr.AddRow(am...)
	fmt.Fprintln(out, tb)
	fmt.Fprintln(out, tr)

	// The paper's cross-design headline for the kernels: SLPMT vs FG,
	// ATOM, EDE.
	var vsFG, vsATOM, vsEDE []float64
	for _, w := range ws {
		vsFG = append(vsFG, bench.Speedup(grid[schemes.FG][w], grid[schemes.SLPMT][w]))
		vsATOM = append(vsATOM, bench.Speedup(grid[schemes.ATOM][w], grid[schemes.SLPMT][w]))
		vsEDE = append(vsEDE, bench.Speedup(grid[schemes.EDE][w], grid[schemes.SLPMT][w]))
	}
	fmt.Fprintf(out, "SLPMT average speedup: %.2fx over FG, %.2fx over ATOM, %.2fx over EDE (paper: 1.57x / 1.65x / 1.78x)\n",
		bench.GeoMean(vsFG), bench.GeoMean(vsATOM), bench.GeoMean(vsEDE))
	return nil
}

// Fig9 reproduces Figure 9: SLPMT restricted to cache-line-granularity
// logging, versus a line-granularity baseline (ATOM's logging grain) —
// showing the log-free and lazy features still pay off without
// fine-grain logging.
func Fig9(out io.Writer, base bench.RunConfig) error {
	ws := workloads.Kernels()
	ss := []string{schemes.ATOM, schemes.SLPMTCL}
	grid := bench.Grid(ss, ws, base)
	if err := checkVerify(grid); err != nil {
		return err
	}
	tb := bench.NewTable(
		"Figure 9: cache-line-granularity SLPMT vs line-granularity baseline (ATOM)",
		"workload", "speedup", "traffic reduction")
	var sp []float64
	for _, w := range ws {
		b := grid[schemes.ATOM][w]
		r := grid[schemes.SLPMTCL][w]
		s := bench.Speedup(b, r)
		sp = append(sp, s)
		tb.AddRow(w, bench.Fx(s), bench.Pct(bench.TrafficReduction(b, r)))
	}
	tb.AddRow("geomean", bench.Fx(bench.GeoMean(sp)), "")
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(paper: 1.27x average from log-free + lazy persistence alone)\n")
	return nil
}

// valueSweep is the shared sweep used by Figures 10 and 11.
var valueSizes = []int{16, 32, 64, 128, 256}

// Fig10 reproduces Figure 10: SLPMT-over-FG speedup as a function of
// value size.
func Fig10(out io.Writer, base bench.RunConfig) error {
	ws := workloads.Kernels()
	tb := bench.NewTable(
		"Figure 10: SLPMT speedup over FG vs value size",
		append([]string{"workload"}, colsOfInts(valueSizes)...)...)
	sweep, err := pairSweep(base, ws, len(valueSizes), func(cfg *bench.RunConfig, v int) {
		cfg.ValueSize = valueSizes[v]
	})
	if err != nil {
		return err
	}
	means := make([]float64, len(valueSizes))
	counts := 0
	for wi, w := range ws {
		row := []string{w}
		for i := range valueSizes {
			p := sweep[wi][i]
			sp := bench.Speedup(p.base, p.slpmt)
			means[i] += sp
			row = append(row, bench.Fx(sp))
		}
		counts++
		tb.AddRow(row...)
	}
	row := []string{"mean"}
	for i := range valueSizes {
		row = append(row, bench.Fx(means[i]/float64(counts)))
	}
	tb.AddRow(row...)
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(paper: >= 1.22x average even at 16B; rising with value size)\n")
	return nil
}

// Fig11 reproduces Figure 11: absolute write-traffic reduction (bytes
// saved vs FG) as a function of value size.
func Fig11(out io.Writer, base bench.RunConfig) error {
	ws := workloads.Kernels()
	tb := bench.NewTable(
		"Figure 11: PM write-traffic reduction (KiB saved vs FG, and %) vs value size",
		append([]string{"workload"}, colsOfInts(valueSizes)...)...)
	sweep, err := pairSweep(base, ws, len(valueSizes), func(cfg *bench.RunConfig, v int) {
		cfg.ValueSize = valueSizes[v]
	})
	if err != nil {
		return err
	}
	for wi, w := range ws {
		row := []string{w}
		for i := range valueSizes {
			b, r := sweep[wi][i].base, sweep[wi][i].slpmt
			savedKiB := (float64(b.PMWriteBytes()) - float64(r.PMWriteBytes())) / 1024
			row = append(row, fmt.Sprintf("%.0fKiB/%s", savedKiB, bench.Pct(bench.TrafficReduction(b, r))))
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(paper: saved bytes grow ~linearly with value size; flat from 16B to 32B)\n")
	return nil
}

// Fig12 reproduces Figure 12: SLPMT-over-FG speedup as the PM write
// latency grows from 500ns to 2300ns (the CXL byte-addressable-storage
// range).
func Fig12(out io.Writer, base bench.RunConfig) error {
	lats := []uint64{500, 1100, 1700, 2300}
	ws := workloads.Kernels()
	tb := bench.NewTable(
		"Figure 12: SLPMT speedup over FG vs PM write latency (ns)",
		append([]string{"workload"}, colsOfU64(lats)...)...)
	sweep, err := pairSweep(base, ws, len(lats), func(cfg *bench.RunConfig, v int) {
		cfg.PMWriteNanos = lats[v]
	})
	if err != nil {
		return err
	}
	for wi, w := range ws {
		row := []string{w}
		for i := range lats {
			p := sweep[wi][i]
			row = append(row, bench.Fx(bench.Speedup(p.base, p.slpmt)))
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(paper: gains largely stable; hashtable the most latency-sensitive via lazy persistence)\n")
	return nil
}

// Fig14 reproduces Figure 14: PMKV speedups for the three backends at
// 256-byte (left) and 16-byte (right) values.
func Fig14(out io.Writer, base bench.RunConfig) error {
	ws := workloads.PMKV()
	ss := []string{schemes.FG, schemes.SLPMT, schemes.ATOM, schemes.EDE}
	for _, vs := range []int{256, 16} {
		cfg := base
		cfg.ValueSize = vs
		grid := bench.Grid(ss, ws, cfg)
		if err := checkVerify(grid); err != nil {
			return err
		}
		tb := bench.NewTable(
			fmt.Sprintf("Figure 14: PMKV with %dB values — SLPMT speedup", vs),
			"workload", "vs FG", "vs ATOM", "vs EDE", "traffic cut vs FG")
		for _, w := range ws {
			r := grid[schemes.SLPMT][w]
			tb.AddRow(w,
				bench.Fx(bench.Speedup(grid[schemes.FG][w], r)),
				bench.Fx(bench.Speedup(grid[schemes.ATOM][w], r)),
				bench.Fx(bench.Speedup(grid[schemes.EDE][w], r)),
				bench.Pct(bench.TrafficReduction(grid[schemes.FG][w], r)))
		}
		fmt.Fprintln(out, tb)
	}
	fmt.Fprintf(out, "(paper at 256B: 1.35-1.87x over EDE, 1.4-2x over ATOM; traffic cut 32.6-47.6%%;\n"+
		" at 16B: 1.35x/1.58x average over EDE/ATOM)\n")
	return nil
}

// Headline reproduces the abstract's summary: SLPMT vs the
// state-of-the-art hardware designs across all six benchmarks.
func Headline(out io.Writer, base bench.RunConfig) error {
	ws := append(append([]string{}, workloads.Kernels()...), workloads.PMKV()...)
	ss := []string{schemes.FG, schemes.SLPMT, schemes.ATOM, schemes.EDE}
	grid := bench.Grid(ss, ws, base)
	if err := checkVerify(grid); err != nil {
		return err
	}
	var vsPrior, red []float64
	for _, w := range ws {
		r := grid[schemes.SLPMT][w]
		vsPrior = append(vsPrior,
			bench.Speedup(grid[schemes.ATOM][w], r),
			bench.Speedup(grid[schemes.EDE][w], r))
		red = append(red, bench.TrafficReduction(grid[schemes.FG][w], r))
	}
	fmt.Fprintf(out, "Headline: SLPMT vs prior hardware PM transactions (ATOM, EDE) across %d benchmarks:\n", len(ws))
	fmt.Fprintf(out, "  average speedup %.2fx (paper: 1.8x)\n", bench.GeoMean(vsPrior))
	fmt.Fprintf(out, "  average PM write-traffic reduction %s (paper: ~46%% vs prior designs)\n", bench.Pct(mean(red)))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// pair is one sweep cell: the FG baseline and the SLPMT run under
// identical parameters.
type pair struct{ base, slpmt bench.Result }

// pairSweep runs the (FG, SLPMT) pair for every workload × variant on
// the worker pool, returning pairs indexed [workload][variant]. The
// configure hook applies variant v to the cell's RunConfig (value size,
// write latency, banks, ...). Results are positionally identical to
// the nested serial loops the figures used to run.
func pairSweep(base bench.RunConfig, ws []string, variants int, configure func(cfg *bench.RunConfig, v int)) ([][]pair, error) {
	cfgs := make([]bench.RunConfig, 0, 2*len(ws)*variants)
	for _, w := range ws {
		for v := 0; v < variants; v++ {
			cfg := base
			cfg.Workload = w
			configure(&cfg, v)
			cfg.Scheme = schemes.FG
			cfgs = append(cfgs, cfg)
			cfg.Scheme = schemes.SLPMT
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := bench.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][]pair, len(ws))
	i := 0
	for wi := range ws {
		out[wi] = make([]pair, variants)
		for v := 0; v < variants; v++ {
			out[wi][v] = pair{base: results[i], slpmt: results[i+1]}
			i += 2
		}
	}
	return out, nil
}

func colsOfInts(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%dB", x)
	}
	return out
}

func colsOfU64(xs []uint64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%dns", x)
	}
	return out
}

func opsOf(b bench.RunConfig) int {
	if b.N == 0 {
		return 1000
	}
	return b.N
}

func valueOf(b bench.RunConfig) int {
	if b.ValueSize == 0 {
		return 256
	}
	return b.ValueSize
}
