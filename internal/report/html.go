package report

import (
	"fmt"
	"html/template"
	"io"
	"sort"
	"strings"

	"github.com/persistmem/slpmt/internal/profile"
)

// RenderHTML writes a self-contained run report (inline CSS + SVG, no
// external assets, no scripts) for one or more BENCH documents:
// per-run summary tables, scheme-vs-scheme speedup deltas, commit- and
// drain-latency percentiles, WPQ occupancy charts, and the
// cycle-attribution breakdowns with share bars. Output is
// deterministic for a given input set.
func RenderHTML(w io.Writer, reports []Report) error {
	view := htmlView{Title: "slpmt run report"}
	for _, rep := range reports {
		view.Experiments = append(view.Experiments, buildExpView(rep))
	}
	return htmlTmpl.Execute(w, view)
}

type htmlView struct {
	Title       string
	Experiments []expView
}

type expView struct {
	Name       string
	Runs       int
	Parallel   int
	WallMillis float64
	Rows       []runRow
	Deltas     []deltaGroup
	Latency    []latencyRow
	WPQ        *wpqChart
	Breakdowns []breakdownTable
	CritPaths  []critView
}

// critView is one analyzed run's critical-path panel: the per-core
// blame timeline SVG, the critical-vs-raw cause shares, the slack
// ranking, and the hot-line observatory.
type critView struct {
	Label    string
	Makespan uint64
	Hops     int
	Causes   []critCauseRow
	Slack    []CritSlack
	HotLines []HotLine
	SVG      template.HTML
}

type critCauseRow struct {
	Cause   string
	Cycles  uint64
	CritPct float64 // share of the critical path
	RawPct  float64 // share of all attributed core-cycles
	Help    string
}

type runRow struct {
	Label     string
	Cycles    uint64
	Data      uint64
	Log       uint64
	Total     uint64
	TxCommits uint64
	VerifyOK  bool
}

type deltaGroup struct {
	Label    string // the shared workload/parameter point
	Baseline string // scheme the speedups are relative to
	Rows     []deltaRow
}

type deltaRow struct {
	Scheme  string
	Cycles  uint64
	Speedup float64
	Traffic float64 // write-traffic reduction vs baseline, fraction
}

type latencyRow struct {
	Label                     string
	P50, P95, P99             uint64
	LazyP50, LazyP95, LazyP99 uint64
}

// wpqChart is an inline-SVG occupancy chart: one polyline per scheme
// over the results' varying core counts (or grid index when the
// experiment does not sweep cores).
type wpqChart struct {
	SVG    template.HTML
	Series []wpqSeries
}

type wpqSeries struct {
	Scheme string
	Max    uint64
	Avg    uint64
}

type breakdownTable struct {
	Label string
	Total uint64
	Rows  []breakdownRow
}

type breakdownRow struct {
	Cause   string
	Group   string
	Help    string
	Cycles  uint64
	Percent float64
}

// label renders the distinguishing parameters of a result inside one
// experiment.
func label(r Result) string {
	parts := []string{r.Scheme, r.Workload}
	parts = append(parts, fmt.Sprintf("n=%d", r.N), fmt.Sprintf("v=%dB", r.ValueSize))
	if r.PMWriteNanos != 0 {
		parts = append(parts, fmt.Sprintf("pm=%dns", r.PMWriteNanos))
	}
	if r.Banks != 0 {
		parts = append(parts, fmt.Sprintf("banks=%d", r.Banks))
	}
	if r.WPQBytes != 0 {
		parts = append(parts, fmt.Sprintf("wpq=%dB", r.WPQBytes))
	}
	if r.Cores != 0 {
		parts = append(parts, fmt.Sprintf("cores=%d", r.Cores))
	}
	if r.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", r.Seed))
	}
	return strings.Join(parts, " ")
}

// pointKey identifies a parameter point with the scheme removed, so
// schemes measured at the same point can be compared.
func pointKey(r Result) string {
	r.Scheme = ""
	return label(r)
}

func buildExpView(rep Report) expView {
	ev := expView{
		Name:       rep.Experiment,
		Runs:       rep.Runs,
		Parallel:   rep.Parallel,
		WallMillis: rep.WallMillis,
	}
	for _, r := range rep.Results {
		ev.Rows = append(ev.Rows, runRow{
			Label:     label(r),
			Cycles:    r.Cycles,
			Data:      r.PMWriteBytesData,
			Log:       r.PMWriteBytesLog,
			Total:     r.PMWriteBytes,
			TxCommits: r.TxCommits,
			VerifyOK:  r.VerifyOK,
		})
		if r.CommitLatencyP50 != 0 || r.LazyDrainP50 != 0 {
			ev.Latency = append(ev.Latency, latencyRow{
				Label: label(r),
				P50:   r.CommitLatencyP50, P95: r.CommitLatencyP95, P99: r.CommitLatencyP99,
				LazyP50: r.LazyDrainP50, LazyP95: r.LazyDrainP95, LazyP99: r.LazyDrainP99,
			})
		}
		if len(r.CyclesByCause) != 0 {
			ev.Breakdowns = append(ev.Breakdowns, buildBreakdown(r))
		}
		if len(r.CriticalPathByCause) != 0 {
			ev.CritPaths = append(ev.CritPaths, buildCritView(r))
		}
	}
	ev.Deltas = buildDeltas(rep.Results)
	ev.WPQ = buildWPQChart(rep.Results)
	return ev
}

// compilerSuffix marks fig13's compiler replays: workload
// "<kernel>/compiler" is the kernel rerun with compiler-inferred
// annotations (internal/experiments/compiler.go).
const compilerSuffix = "/compiler"

// buildDeltas groups the results by parameter point and renders each
// scheme's speedup and traffic reduction relative to the point's
// baseline (FG when present, else the alphabetically first scheme). A
// compiler replay joins its kernel's point as scheme
// "<scheme>/compiler", so it gets a speedup row against the kernel's
// FG run.
func buildDeltas(results []Result) []deltaGroup {
	points := map[string][]Result{}
	order := []string{}
	for _, r := range results {
		if kernel, ok := strings.CutSuffix(r.Workload, compilerSuffix); ok {
			r.Workload, r.Scheme = kernel, r.Scheme+compilerSuffix
		}
		k := pointKey(r)
		if _, ok := points[k]; !ok {
			order = append(order, k)
		}
		points[k] = append(points[k], r)
	}
	var out []deltaGroup
	for _, k := range order {
		rs := points[k]
		if len(rs) < 2 {
			continue
		}
		base := rs[0]
		for _, r := range rs {
			if r.Scheme == "FG" {
				base = r
			}
		}
		g := deltaGroup{Label: strings.TrimSpace(k), Baseline: base.Scheme}
		for _, r := range rs {
			row := deltaRow{Scheme: r.Scheme, Cycles: r.Cycles}
			if r.Cycles != 0 {
				row.Speedup = float64(base.Cycles) / float64(r.Cycles)
			}
			if base.PMWriteBytes != 0 {
				row.Traffic = 1 - float64(r.PMWriteBytes)/float64(base.PMWriteBytes)
			}
			g.Rows = append(g.Rows, row)
		}
		sort.Slice(g.Rows, func(i, j int) bool { return g.Rows[i].Scheme < g.Rows[j].Scheme })
		out = append(out, g)
	}
	return out
}

// buildWPQChart renders occupancy-vs-cores polylines when the results
// carry occupancy gauges at more than one core count, plus a summary
// series table either way.
func buildWPQChart(results []Result) *wpqChart {
	type pt struct {
		cores int
		avg   uint64
		max   uint64
	}
	bySch := map[string][]pt{}
	schemes := []string{}
	summary := map[string]*wpqSeries{}
	for _, r := range results {
		if r.WPQOccMaxBytes == 0 && r.WPQOccAvgBytes == 0 {
			continue
		}
		cores := r.Cores
		if cores == 0 {
			cores = 1
		}
		if _, ok := bySch[r.Scheme]; !ok {
			schemes = append(schemes, r.Scheme)
			summary[r.Scheme] = &wpqSeries{Scheme: r.Scheme}
		}
		bySch[r.Scheme] = append(bySch[r.Scheme], pt{cores, r.WPQOccAvgBytes, r.WPQOccMaxBytes})
		s := summary[r.Scheme]
		if r.WPQOccMaxBytes > s.Max {
			s.Max = r.WPQOccMaxBytes
		}
		if r.WPQOccAvgBytes > s.Avg {
			s.Avg = r.WPQOccAvgBytes
		}
	}
	if len(schemes) == 0 {
		return nil
	}
	sort.Strings(schemes)
	ch := &wpqChart{}
	for _, s := range schemes {
		ch.Series = append(ch.Series, *summary[s])
	}

	// The polyline chart needs a sweep: at least one scheme with two
	// distinct core counts.
	var maxCores int
	var maxOcc uint64
	sweep := false
	for _, s := range schemes {
		pts := bySch[s]
		sort.Slice(pts, func(i, j int) bool { return pts[i].cores < pts[j].cores })
		bySch[s] = pts
		if len(pts) > 1 && pts[0].cores != pts[len(pts)-1].cores {
			sweep = true
		}
		for _, p := range pts {
			if p.cores > maxCores {
				maxCores = p.cores
			}
			if p.max > maxOcc {
				maxOcc = p.max
			}
		}
	}
	if !sweep || maxCores < 2 || maxOcc == 0 {
		return ch
	}

	const W, H, M = 640, 240, 36
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">`, W, H, W, H)
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%d" height="%d" fill="#fafafa" stroke="#ddd"/>`, W, H)
	x := func(cores int) float64 { return M + float64(cores-1)/float64(maxCores-1)*(W-2*M) }
	y := func(occ uint64) float64 { return H - M - float64(occ)/float64(maxOcc)*(H-2*M) }
	for c := 1; c <= maxCores; c++ {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle" fill="#555">%d</text>`, x(c), H-M/3, c)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="#555">avg WPQ occupancy (bytes) vs cores; dashed = high-water</text>`, M, M/2)
	palette := []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"}
	for i, s := range schemes {
		col := palette[i%len(palette)]
		var avg, max []string
		for _, p := range bySch[s] {
			avg = append(avg, fmt.Sprintf("%.1f,%.1f", x(p.cores), y(p.avg)))
			max = append(max, fmt.Sprintf("%.1f,%.1f", x(p.cores), y(p.max)))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`, strings.Join(avg, " "), col)
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1" stroke-dasharray="4 3"/>`, strings.Join(max, " "), col)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="%s">%s</text>`, M+i*90, H-4, col, template.HTMLEscapeString(s))
	}
	b.WriteString(`</svg>`)
	ch.SVG = template.HTML(b.String()) //nolint:gosec // built above from escaped fields only
	return ch
}

func buildBreakdown(r Result) breakdownTable {
	t := breakdownTable{Label: label(r)}
	for _, v := range r.CyclesByCause {
		t.Total += v
	}
	names := make([]string, 0, len(r.CyclesByCause))
	for name := range r.CyclesByCause { //slpmt:determinism-ok: collected keys are sorted below
		names = append(names, name)
	}
	// Heaviest cause first; ties alphabetical.
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		if r.CyclesByCause[a] != r.CyclesByCause[b] {
			return r.CyclesByCause[a] > r.CyclesByCause[b]
		}
		return a < b
	})
	for _, name := range names {
		v := r.CyclesByCause[name]
		row := breakdownRow{Cause: name, Cycles: v, Help: CauseHelp(name)}
		if c, ok := profile.ByName(name); ok {
			row.Group = c.Group()
		}
		if t.Total != 0 {
			row.Percent = 100 * float64(v) / float64(t.Total)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// buildCritView assembles one run's critical-path panel from the
// report fields, including the per-core blame timeline SVG: one lane
// per core, one bar per path span (the interval the critical path
// resided on that core), colored by the span's dominant cause.
func buildCritView(r Result) critView {
	cv := critView{
		Label:    label(r),
		Makespan: r.CritPathLen,
		Hops:     r.CritPathHops,
		Slack:    r.CritPathSlackTop,
		HotLines: r.HotLines,
	}
	var rawTotal uint64
	for _, v := range r.CyclesByCause {
		rawTotal += v
	}
	names := make([]string, 0, len(r.CriticalPathByCause))
	for name := range r.CriticalPathByCause { //slpmt:determinism-ok: collected keys are sorted below
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		if r.CriticalPathByCause[a] != r.CriticalPathByCause[b] {
			return r.CriticalPathByCause[a] > r.CriticalPathByCause[b]
		}
		return a < b
	})
	for _, name := range names {
		v := r.CriticalPathByCause[name]
		row := critCauseRow{Cause: name, Cycles: v, Help: CauseHelp(name)}
		if r.CritPathLen != 0 {
			row.CritPct = 100 * float64(v) / float64(r.CritPathLen)
		}
		if rawTotal != 0 {
			row.RawPct = 100 * float64(r.CyclesByCause[name]) / float64(rawTotal)
		}
		cv.Causes = append(cv.Causes, row)
	}
	cv.SVG = critTimelineSVG(r.CritPathSteps, names)
	return cv
}

// critTimelineSVG renders the blame timeline. causeOrder (heaviest
// first) fixes the color assignment so the timeline and the cause
// table agree.
func critTimelineSVG(steps []CritStep, causeOrder []string) template.HTML {
	if len(steps) == 0 {
		return ""
	}
	lo, hi := steps[0].Start, steps[0].End
	coreSet := map[int]bool{}
	for _, s := range steps {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
		coreSet[s.Core] = true
	}
	if hi <= lo {
		return ""
	}
	cores := make([]int, 0, len(coreSet))
	for c := range coreSet { //slpmt:determinism-ok: collected cores are sorted below
		cores = append(cores, c)
	}
	sort.Ints(cores)
	lane := map[int]int{}
	for i, c := range cores {
		lane[c] = i
	}
	palette := []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"}
	color := map[string]string{}
	for i, name := range causeOrder {
		color[name] = palette[i%len(palette)]
	}
	const W, M, laneH = 640, 36, 22
	H := 2*M + laneH*len(cores)
	x := func(c uint64) float64 { return M + float64(c-lo)/float64(hi-lo)*(W-2*M) }
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">`, W, H, W, H)
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%d" height="%d" fill="#fafafa" stroke="#ddd"/>`, W, H)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="#555">critical-path residence per core over the measured region (%d..%d cycles)</text>`, M, M/2+4, lo, hi)
	for _, c := range cores {
		yTop := M + lane[c]*laneH
		fmt.Fprintf(&b, `<text x="4" y="%d" font-size="11" fill="#555">c%d</text>`, yTop+laneH-8, c)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#eee"/>`, M, yTop+laneH-4, W-M, yTop+laneH-4)
	}
	for _, s := range steps {
		col, ok := color[s.Cause]
		if !ok {
			col = "#999"
		}
		yTop := M + lane[s.Core]*laneH
		x0, x1 := x(s.Start), x(s.End)
		if x1-x0 < 0.5 {
			x1 = x0 + 0.5 // keep sub-pixel spans visible
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>core %d %s [%d..%d] via %s</title></rect>`,
			x0, yTop, x1-x0, laneH-6, col, s.Core, template.HTMLEscapeString(s.Cause), s.Start, s.End, template.HTMLEscapeString(s.Edge))
	}
	// Legend: the heaviest causes, left to right.
	lx := M
	for i, name := range causeOrder {
		if i >= len(palette) {
			break
		}
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, lx, H-M+6, color[name])
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="#555">%s</text>`, lx+14, H-M+15, template.HTMLEscapeString(name))
		lx += 14 + 8*len(name) + 16
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String()) //nolint:gosec // built above from escaped fields only
}

var htmlTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"f2":  func(x float64) string { return fmt.Sprintf("%.2f", x) },
	"pct": func(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) },
	"bar": func(p float64) template.CSS {
		if p < 0 {
			p = 0
		}
		if p > 100 {
			p = 100
		}
		return template.CSS(fmt.Sprintf("width:%.1f%%", p))
	},
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 72em; padding: 0 1em; color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em; border-bottom: 2px solid #eee; }
h3 { font-size: 1em; margin-top: 1.4em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #ddd; padding: 3px 8px; text-align: right; font-variant-numeric: tabular-nums; }
th { background: #f5f5f5; } td.l, th.l { text-align: left; }
.ok { color: #2a7a2a; } .bad { color: #b22; font-weight: bold; }
.bar { position: relative; min-width: 12em; }
.bar span { position: absolute; left: 0; top: 0; bottom: 0; background: #cfe3f7; z-index: -1; display: block; }
.bar { z-index: 0; }
td.help { text-align: left; color: #666; font-size: 0.92em; }
.meta { color: #666; font-size: 0.92em; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
{{range .Experiments}}
<h2>experiment: {{.Name}}</h2>
<p class="meta">{{.Runs}} runs, {{.WallMillis}} ms wall, parallel={{.Parallel}}</p>

<h3>results</h3>
<table>
<tr><th class="l">run</th><th>cycles</th><th>data B</th><th>log B</th><th>PM write B</th><th>commits</th><th>verify</th></tr>
{{range .Rows}}<tr><td class="l">{{.Label}}</td><td>{{.Cycles}}</td><td>{{.Data}}</td><td>{{.Log}}</td><td>{{.Total}}</td><td>{{.TxCommits}}</td><td>{{if .VerifyOK}}<span class="ok">ok</span>{{else}}<span class="bad">FAIL</span>{{end}}</td></tr>
{{end}}</table>

{{if .Deltas}}<h3>scheme vs scheme</h3>
{{range .Deltas}}<table>
<tr><th class="l" colspan="4">{{.Label}} (baseline {{.Baseline}})</th></tr>
<tr><th class="l">scheme</th><th>cycles</th><th>speedup</th><th>traffic saved</th></tr>
{{range .Rows}}<tr><td class="l">{{.Scheme}}</td><td>{{.Cycles}}</td><td>{{f2 .Speedup}}x</td><td>{{pct .Traffic}}</td></tr>
{{end}}</table>
{{end}}{{end}}

{{if .Latency}}<h3>latency percentiles (cycles)</h3>
<table>
<tr><th class="l">run</th><th>commit p50</th><th>p95</th><th>p99</th><th>lazy p50</th><th>p95</th><th>p99</th></tr>
{{range .Latency}}<tr><td class="l">{{.Label}}</td><td>{{.P50}}</td><td>{{.P95}}</td><td>{{.P99}}</td><td>{{.LazyP50}}</td><td>{{.LazyP95}}</td><td>{{.LazyP99}}</td></tr>
{{end}}</table>{{end}}

{{if .WPQ}}<h3>WPQ occupancy</h3>
{{if .WPQ.SVG}}{{.WPQ.SVG}}{{end}}
<table>
<tr><th class="l">scheme</th><th>high-water B</th><th>peak avg B</th></tr>
{{range .WPQ.Series}}<tr><td class="l">{{.Scheme}}</td><td>{{.Max}}</td><td>{{.Avg}}</td></tr>
{{end}}</table>{{end}}

{{if .CritPaths}}<h3>critical path (causal blame)</h3>
{{range .CritPaths}}<p class="meta">{{.Label}} — critical path {{.Makespan}} cycles (== measured makespan), {{.Hops}} cross-core hops; lanes = cores, bars = the interval the critical path resided on that core, colored by dominant cause</p>
{{if .SVG}}{{.SVG}}{{end}}
<table>
<tr><th class="l">cause</th><th>path cycles</th><th>critical share</th><th>raw share</th><th class="l">meaning</th></tr>
{{range .Causes}}<tr><td class="l">{{.Cause}}</td><td>{{.Cycles}}</td><td class="bar"><span style="{{bar .CritPct}}"></span>{{f2 .CritPct}}%</td><td>{{f2 .RawPct}}%</td><td class="help">{{.Help}}</td></tr>
{{end}}</table>
{{if .Slack}}<table>
<tr><th class="l" colspan="5">slack top (cycles a node could slip without growing the makespan)</th></tr>
<tr><th>core</th><th class="l">cause</th><th>start</th><th>end</th><th>slack</th></tr>
{{range .Slack}}<tr><td>{{.Core}}</td><td class="l">{{.Cause}}</td><td>{{.Start}}</td><td>{{.End}}</td><td>{{.Slack}}</td></tr>
{{end}}</table>{{end}}
{{if .HotLines}}<table>
<tr><th class="l" colspan="10">hot lines (per-address contention)</th></tr>
<tr><th class="l">line</th><th>score</th><th>transfers</th><th>ping-pong</th><th>stalls</th><th>sig hits</th><th>remote</th><th>stall cyc</th><th>remote cyc</th><th>WPQ residency</th></tr>
{{range .HotLines}}<tr><td class="l">{{.Addr}}</td><td>{{.Score}}</td><td>{{.Transfers}}</td><td>{{.PingPong}}</td><td>{{.Stalls}}</td><td>{{.SigHits}}</td><td>{{.Remote}}</td><td>{{.StallCycles}}</td><td>{{.RemoteCycles}}</td><td>{{.Residency}}</td></tr>
{{end}}</table>{{end}}
{{end}}{{end}}

{{if .Breakdowns}}<h3>cycle attribution</h3>
{{range .Breakdowns}}<table>
<tr><th class="l" colspan="5">{{.Label}} ({{.Total}} attributed core-cycles)</th></tr>
<tr><th class="l">cause</th><th class="l">group</th><th>cycles</th><th>share</th><th class="l">meaning</th></tr>
{{range .Rows}}<tr><td class="l">{{.Cause}}</td><td class="l">{{.Group}}</td><td>{{.Cycles}}</td><td class="bar"><span style="{{bar .Percent}}"></span>{{f2 .Percent}}%</td><td class="help">{{.Help}}</td></tr>
{{end}}</table>
{{end}}{{end}}
{{end}}
</body>
</html>
`))
