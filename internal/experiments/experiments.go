// Package experiments implements the paper's evaluation section: each
// figure of §VI is regenerated as a parameter grid over the simulator
// and rendered as a text table with the quantities the paper plots.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
)

// experiment is a named figure: it runs its cells through the sweep,
// writes its tables and returns each of its cells once. ignores, nil
// for an experiment that reads every run flag, names the flags base
// sets that it does not read.
type experiment struct {
	name    string
	run     func(io.Writer, *sweep, bench.RunConfig) ([]bench.Result, error)
	ignores func(bench.RunConfig) []string
}

// registry lists every experiment in the order "all" runs them; each
// one's BENCH_<name>.json in baselines/ gates it. Everything before
// "scaling" reproduces the paper's single-core evaluation unchanged;
// "scaling" (multi-core), "breakdown" (cycle-attribution profiling),
// "window" (group-commit sensitivity), "numa" (multi-device socket
// topology), and "critpath" (causal critical-path analysis) are
// extensions.
var registry = []experiment{
	{"fig8", Fig8, nil}, {"fig9", Fig9, nil}, {"fig10", Fig10, nil}, {"fig12", Fig12, nil},
	{"fig13", Fig13, platformFlags}, {"fig14", Fig14, nil},
	{"headline", Headline, nil}, {"ablation", Ablation, nil}, {"model", Model, nil},
	{"mixes", Mixes, mixesIgnores}, {"scaling", Scaling, nil}, {"breakdown", Breakdown, nil},
	{"window", Window, nil}, {"numa", Numa, nil}, {"critpath", CritPath, nil},
}

// Sweep holds every bench run its experiments asked for, keyed by the
// simulated machine (see machine), so a cell that several experiments
// share is simulated once. slpmtbench's "all" runs every one of Names
// through one Sweep; a lone experiment gets its own. The zero Sweep is
// empty and ready to use.
type Sweep struct {
	by   map[bench.RunConfig]bench.Result
	runs int
}

// machine is cfg's key in a Sweep: cfg with Cores, CommitWindow and
// Sockets of 0 spelled 1. Either spelling simulates the same one-core,
// per-transaction, one-device machine, so scaling's Sockets 0 and
// numa's 1, or window's CommitWindow 1 and breakdown's 0, share a run.
func machine(cfg bench.RunConfig) bench.RunConfig {
	cfg.Cores, cfg.CommitWindow, cfg.Sockets = max(cfg.Cores, 1), max(cfg.CommitWindow, 1), max(cfg.Sockets, 1)
	return cfg
}

// Runs is the number of bench runs the sweep simulated.
func (s *Sweep) Runs() int { return s.runs }

// Run executes the named experiment, writing its tables to w, and
// returns each of its cells once, in the order it first asked for
// them, each under its own RunConfig; a cell whose machine the sweep
// already holds is looked up, not run again. If a result failed its
// invariant check or the persist-order sanitizer, Run returns an error
// naming the first such cell instead; the tables are written by then.
func (s *Sweep) Run(w io.Writer, name string, base bench.RunConfig) ([]bench.Result, error) {
	for _, e := range registry {
		if e.name != name {
			continue
		}
		results, err := e.run(w, &sweep{Sweep: s}, base)
		if err != nil {
			return nil, err
		}
		if err := verified(results); err != nil {
			return nil, err
		}
		return results, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (have %s, all)", name, strings.Join(Names(), ", "))
}

// verified returns an error naming the first of results, in run order,
// whose invariant check failed or whose persist-order sanitizer found a
// violation (a cell traced in full detail is sanitized live).
func verified(results []bench.Result) error {
	for _, r := range results {
		if r.VerifyErr != nil {
			return fmt.Errorf("%s failed verification: %v", cellName(r.RunConfig), r.VerifyErr)
		}
		if z := r.Sanitizer; z != nil && !z.Clean() {
			return fmt.Errorf("%s failed the persist-order sanitizer: %d violations, the first %s",
				cellName(r.RunConfig), z.Total, z.Violations[0])
		}
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

// Ignores names, as "flag value", each run flag base sets off its
// default that the named experiment does not read; nil if it reads them
// all (or there is no such experiment).
func Ignores(name string, base bench.RunConfig) []string {
	for _, e := range registry {
		if e.name == name && e.ignores != nil {
			return e.ignores(base)
		}
	}
	return nil
}

// platformFlags names each of base's -cores, -commit-window, -sockets
// and -remote-nanos that is off the one-core, one-device default: the
// flags an experiment that builds its own one-core systems ignores.
func platformFlags(base bench.RunConfig) []string {
	var out []string
	add := func(set bool, flag string, v uint64) {
		if set {
			out = append(out, fmt.Sprintf("%s %d", flag, v))
		}
	}
	add(base.Cores > 1, "-cores", uint64(base.Cores))
	add(base.CommitWindow > 1, "-commit-window", uint64(base.CommitWindow))
	add(base.Sockets > 1, "-sockets", uint64(base.Sockets))
	add(base.RemoteNanos != 0, "-remote-nanos", base.RemoteNanos)
	return out
}

// cellName names a run by its scheme and workload, its mix, and every
// swept knob it sets.
func cellName(cfg bench.RunConfig) string {
	name := cfg.Scheme + "/" + cfg.Workload
	if cfg.Mix.Name != "" {
		name += " mix=" + cfg.Mix.Name
	}
	for _, k := range []struct {
		name string
		v    uint64
	}{
		{"value", uint64(cfg.ValueSize)}, {"writelat", cfg.PMWriteNanos}, {"banks", uint64(cfg.Banks)},
		{"wpq", uint64(cfg.WPQBytes)}, {"cores", uint64(cfg.Cores)}, {"W", uint64(cfg.CommitWindow)},
		{"sockets", uint64(cfg.Sockets)}, {"remote-nanos", cfg.RemoteNanos},
	} {
		if k.v != 0 {
			name += fmt.Sprintf(" %s=%d", k.name, k.v)
		}
	}
	return name
}

// sweep is one experiment's view of a Sweep: results holds each cell
// the experiment asked for once, in the order it first asked.
type sweep struct {
	*Sweep
	results []bench.Result
	mine    map[bench.RunConfig]bool
}

// run returns the result of every cfg, in order, each under its own
// RunConfig, simulating on the worker pool only the machines the Sweep
// does not hold yet.
func (sw *sweep) run(cfgs []bench.RunConfig) ([]bench.Result, error) {
	if sw.by == nil {
		sw.by = make(map[bench.RunConfig]bench.Result, len(cfgs))
	}
	if sw.mine == nil {
		sw.mine = make(map[bench.RunConfig]bool, len(cfgs))
	}
	var missing []bench.RunConfig
	for _, cfg := range cfgs {
		if m := machine(cfg); !slices.Contains(missing, m) {
			if _, ok := sw.by[m]; !ok {
				missing = append(missing, m)
			}
		}
	}
	rs, err := bench.RunAll(missing)
	if err != nil {
		return nil, err
	}
	sw.runs += len(rs)
	for _, r := range rs {
		sw.by[r.RunConfig] = r
	}
	out := make([]bench.Result, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = sw.by[machine(cfg)]
		out[i].RunConfig = cfg
		if !sw.mine[cfg] {
			sw.mine[cfg] = true
			sw.results = append(sw.results, out[i])
		}
	}
	return out, nil
}

// grid runs every scheme × workload over base's other fields.
func (sw *sweep) grid(schemeNames, workloadNames []string, base bench.RunConfig) error {
	cfgs := make([]bench.RunConfig, 0, len(schemeNames)*len(workloadNames))
	for _, s := range schemeNames {
		for _, w := range workloadNames {
			cfgs = append(cfgs, cell(base, s, w))
		}
	}
	_, err := sw.run(cfgs)
	return err
}

// at returns the result of the run cfg configured. It panics, naming
// the cell, if the experiment never asked for that run: a mistyped
// scheme or knob would otherwise print a zero-cycle row.
func (sw *sweep) at(cfg bench.RunConfig) bench.Result {
	if !sw.mine[cfg] {
		panic("experiments: no run of " + cellName(cfg))
	}
	r := sw.by[machine(cfg)]
	r.RunConfig = cfg
	return r
}

// cell is base with the scheme and workload set: a grid cell's
// RunConfig.
func cell(base bench.RunConfig, scheme, workload string) bench.RunConfig {
	base.Scheme, base.Workload = scheme, workload
	return base
}

// Fig8 reproduces Figure 8: speedup over the FG baseline (left) and
// persistent-memory write-traffic reduction over the baseline (right)
// for the kernel benchmarks under every evaluated scheme.
func Fig8(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	ss := schemes.Evaluated()
	ws := workloads.Kernels()
	if err := sw.grid(ss, ws, base); err != nil {
		return nil, err
	}
	at := func(s, w string) bench.Result { return sw.at(cell(base, s, w)) }

	tb := bench.NewTable(
		fmt.Sprintf("Figure 8 (left): speedup over FG baseline (kernels, %dB values, %d ops)", valueOf(base), opsOf(base)),
		append([]string{"workload"}, ss...)...)
	tr := bench.NewTable(
		"Figure 8 (right): PM write-traffic reduction over FG baseline",
		append([]string{"workload"}, ss...)...)
	perScheme := map[string][]float64{}
	perSchemeTR := map[string][]float64{}
	for _, w := range ws {
		baseRes := at(schemes.FG, w)
		rowS := []string{w}
		rowT := []string{w}
		for _, s := range ss {
			r := at(s, w)
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
		r := at(schemes.SLPMT, w)
		vsFG = append(vsFG, bench.Speedup(at(schemes.FG, w), r))
		vsATOM = append(vsATOM, bench.Speedup(at(schemes.ATOM, w), r))
		vsEDE = append(vsEDE, bench.Speedup(at(schemes.EDE, w), r))
	}
	fmt.Fprintf(out, "SLPMT average speedup: %.2fx over FG, %.2fx over ATOM, %.2fx over EDE (paper: 1.57x / 1.65x / 1.78x)\n",
		bench.GeoMean(vsFG), bench.GeoMean(vsATOM), bench.GeoMean(vsEDE))
	return sw.results, nil
}

// Fig9 reproduces Figure 9: SLPMT restricted to cache-line-granularity
// logging, versus a line-granularity baseline (ATOM's logging grain) —
// showing the log-free and lazy features still pay off without
// fine-grain logging.
func Fig9(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	ws := workloads.Kernels()
	if err := sw.grid([]string{schemes.ATOM, schemes.SLPMTCL}, ws, base); err != nil {
		return nil, err
	}
	tb := bench.NewTable(
		"Figure 9: cache-line-granularity SLPMT vs line-granularity baseline (ATOM)",
		"workload", "speedup", "traffic reduction")
	var sp []float64
	for _, w := range ws {
		b := sw.at(cell(base, schemes.ATOM, w))
		r := sw.at(cell(base, schemes.SLPMTCL, w))
		s := bench.Speedup(b, r)
		sp = append(sp, s)
		tb.AddRow(w, bench.Fx(s), bench.Pct(bench.TrafficReduction(b, r)))
	}
	tb.AddRow("geomean", bench.Fx(bench.GeoMean(sp)), "")
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(paper: 1.27x average from log-free + lazy persistence alone)\n")
	return sw.results, nil
}

// valueSizes is the value-size axis of Figures 10 and 11.
var valueSizes = []int{16, 32, 64, 128, 256}

// Fig10 reproduces Figures 10 and 11 from one value-size sweep:
// SLPMT-over-FG speedup, then absolute write-traffic reduction (bytes
// saved vs FG), as functions of value size.
func Fig10(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	ws := workloads.Kernels()
	cols := append([]string{"workload"}, colsPlain(valueSizes, "B")...)
	tb := bench.NewTable("Figure 10: SLPMT speedup over FG vs value size", cols...)
	pairs, err := sw.pairs(base, ws, len(valueSizes), func(cfg *bench.RunConfig, v int) {
		cfg.ValueSize = valueSizes[v]
	})
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(valueSizes))
	for wi, w := range ws {
		row := []string{w}
		for i := range valueSizes {
			p := pairs[wi][i]
			sp := bench.Speedup(p.base, p.slpmt)
			means[i] += sp
			row = append(row, bench.Fx(sp))
		}
		tb.AddRow(row...)
	}
	row := []string{"mean"}
	for i := range valueSizes {
		row = append(row, bench.Fx(means[i]/float64(len(ws))))
	}
	tb.AddRow(row...)
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(paper: >= 1.22x average even at 16B; rising with value size)\n\n")

	tt := bench.NewTable("Figure 11: PM write-traffic reduction (KiB saved vs FG, and %) vs value size", cols...)
	for wi, w := range ws {
		row := []string{w}
		for i := range valueSizes {
			b, r := pairs[wi][i].base, pairs[wi][i].slpmt
			savedKiB := (float64(b.PMWriteBytes()) - float64(r.PMWriteBytes())) / 1024
			row = append(row, fmt.Sprintf("%.0fKiB/%s", savedKiB, bench.Pct(bench.TrafficReduction(b, r))))
		}
		tt.AddRow(row...)
	}
	fmt.Fprintln(out, tt)
	fmt.Fprintf(out, "(paper: saved bytes grow ~linearly with value size; flat from 16B to 32B)\n")
	return sw.results, nil
}

// Fig12 reproduces Figure 12: SLPMT-over-FG speedup as the PM write
// latency grows from 500ns to 2300ns (the CXL byte-addressable-storage
// range).
func Fig12(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	lats := []uint64{500, 1100, 1700, 2300}
	ws := workloads.Kernels()
	tb := bench.NewTable(
		"Figure 12: SLPMT speedup over FG vs PM write latency (ns)",
		append([]string{"workload"}, colsPlain(lats, "ns")...)...)
	pairs, err := sw.pairs(base, ws, len(lats), func(cfg *bench.RunConfig, v int) {
		cfg.PMWriteNanos = lats[v]
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		row := []string{w}
		for i := range lats {
			p := pairs[wi][i]
			row = append(row, bench.Fx(bench.Speedup(p.base, p.slpmt)))
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(paper: gains largely stable; hashtable the most latency-sensitive via lazy persistence)\n")
	return sw.results, nil
}

// Fig14 reproduces Figure 14: PMKV speedups for the three backends at
// 256-byte (left) and 16-byte (right) values.
func Fig14(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	ws := workloads.PMKV()
	ss := []string{schemes.FG, schemes.SLPMT, schemes.ATOM, schemes.EDE}
	for _, vs := range []int{256, 16} {
		cfg := base
		cfg.ValueSize = vs
		if err := sw.grid(ss, ws, cfg); err != nil {
			return nil, err
		}
		at := func(s, w string) bench.Result { return sw.at(cell(cfg, s, w)) }
		tb := bench.NewTable(
			fmt.Sprintf("Figure 14: PMKV with %dB values — SLPMT speedup", vs),
			"workload", "vs FG", "vs ATOM", "vs EDE", "traffic cut vs FG")
		for _, w := range ws {
			r := at(schemes.SLPMT, w)
			tb.AddRow(w,
				bench.Fx(bench.Speedup(at(schemes.FG, w), r)),
				bench.Fx(bench.Speedup(at(schemes.ATOM, w), r)),
				bench.Fx(bench.Speedup(at(schemes.EDE, w), r)),
				bench.Pct(bench.TrafficReduction(at(schemes.FG, w), r)))
		}
		fmt.Fprintln(out, tb)
	}
	fmt.Fprintf(out, "(paper at 256B: 1.35-1.87x over EDE, 1.4-2x over ATOM; traffic cut 32.6-47.6%%;\n"+
		" at 16B: 1.35x/1.58x average over EDE/ATOM)\n")
	return sw.results, nil
}

// Headline reproduces the abstract's summary: SLPMT vs the
// state-of-the-art hardware designs across all six benchmarks.
func Headline(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	ws := append(append([]string{}, workloads.Kernels()...), workloads.PMKV()...)
	ss := []string{schemes.FG, schemes.SLPMT, schemes.ATOM, schemes.EDE}
	if err := sw.grid(ss, ws, base); err != nil {
		return nil, err
	}
	var vsPrior, red []float64
	for _, w := range ws {
		r := sw.at(cell(base, schemes.SLPMT, w))
		vsPrior = append(vsPrior,
			bench.Speedup(sw.at(cell(base, schemes.ATOM, w)), r),
			bench.Speedup(sw.at(cell(base, schemes.EDE, w)), r))
		red = append(red, bench.TrafficReduction(sw.at(cell(base, schemes.FG, w)), r))
	}
	fmt.Fprintf(out, "Headline: SLPMT vs prior hardware PM transactions (ATOM, EDE) across %d benchmarks:\n", len(ws))
	fmt.Fprintf(out, "  average speedup %.2fx (paper: 1.8x)\n", bench.GeoMean(vsPrior))
	fmt.Fprintf(out, "  average PM write-traffic reduction %s (paper: ~46%% vs prior designs)\n", bench.Pct(mean(red)))
	return sw.results, nil
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

// pairs runs the (FG, SLPMT) pair for every workload × variant through
// sw, returning the pairs indexed
// [workload][variant]. The configure hook applies variant v to the
// cell's RunConfig (value size, write latency, banks, ...).
func (sw *sweep) pairs(base bench.RunConfig, ws []string, variants int, configure func(cfg *bench.RunConfig, v int)) ([][]pair, error) {
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
	results, err := sw.run(cfgs)
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

// colsPlain renders each of xs with suffix appended, as column headers.
func colsPlain[T int | uint64](xs []T, suffix string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d%s", x, suffix)
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
