package report

import (
	"fmt"
	"sort"
	"strings"
)

// Tolerances for the perf-regression gate. The simulator is exactly
// deterministic, so in principle every metric should be byte-equal to
// the baseline — the slack exists so an intentional model change of a
// few percent (a tweaked latency constant, a cache-policy fix) can
// land with a baseline refresh in the same commit, while anything
// larger trips the gate and forces a look.
const (
	// TolCycles bounds relative drift in cycles and PM write traffic.
	TolCycles = 0.05
	// TolPercentile bounds drift in latency percentiles and WPQ
	// occupancy gauges — tail metrics move more than totals.
	TolPercentile = 0.10
	// TolCause bounds drift of one attribution cause's cycle share.
	TolCause = 0.10
	// CauseFloorCycles is an absolute floor under TolCause: a cause
	// smaller than this may drift freely (a 40-cycle cause doubling is
	// noise, not a regression).
	CauseFloorCycles = 512
)

// metricTol maps the comparable scalar metrics to their relative
// tolerance. wall_ms, parallel, allocs_per_op and bytes_per_op are
// host-dependent and deliberately absent. verify_ok is checked
// separately (it must not regress at all).
var metricTol = map[string]float64{
	"cycles":              TolCycles,
	"pm_write_bytes_data": TolCycles,
	"pm_write_bytes_log":  TolCycles,
	"pm_write_bytes":      TolCycles,
	"tx_commits":          0,
	"commit_latency_p50":  TolPercentile,
	"commit_latency_p95":  TolPercentile,
	"commit_latency_p99":  TolPercentile,
	"lazy_drain_p50":      TolPercentile,
	"lazy_drain_p95":      TolPercentile,
	"lazy_drain_p99":      TolPercentile,
	"wpq_occ_max_bytes":   TolPercentile,
	"wpq_occ_avg_bytes":   TolPercentile,
}

// metricOrder fixes the row order of the delta table.
var metricOrder = []string{
	"cycles", "pm_write_bytes_data", "pm_write_bytes_log", "pm_write_bytes",
	"tx_commits",
	"commit_latency_p50", "commit_latency_p95", "commit_latency_p99",
	"lazy_drain_p50", "lazy_drain_p95", "lazy_drain_p99",
	"wpq_occ_max_bytes", "wpq_occ_avg_bytes",
}

// Delta is one metric's baseline-vs-candidate comparison.
type Delta struct {
	Key       string  // result key (Result.Key)
	Metric    string  // metric name, "cycles_by_cause.<cause>" for causes
	Base      uint64  // baseline value
	Got       uint64  // candidate value
	Rel       float64 // relative drift |got-base| / base
	Tolerance float64 // allowed relative drift
	OK        bool
}

func (d Delta) String() string {
	return fmt.Sprintf("%s %s: %d -> %d (%+.2f%%, tol %.0f%%)",
		d.Key, d.Metric, d.Base, d.Got, 100*signedRel(d.Base, d.Got), 100*d.Tolerance)
}

// signedRel is the signed relative change from base to got.
func signedRel(base, got uint64) float64 {
	if base == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return (float64(got) - float64(base)) / float64(base)
}

// Comparison is the outcome of diffing one candidate document against
// its committed baseline.
type Comparison struct {
	Experiment string
	// Failures are deltas exceeding tolerance, missing results, removed
	// metrics, or verify regressions.
	Failures []string
	// Drifted are within-tolerance nonzero deltas (informational).
	Drifted []Delta
	// Notes are non-fatal observations: metrics or results present in
	// the candidate but absent from the baseline (new code producing
	// new data is not a regression).
	Notes []string
	// Checked counts compared (result, metric) pairs.
	Checked int
}

// Pass reports whether the candidate is within tolerance of the
// baseline.
func (c *Comparison) Pass() bool { return len(c.Failures) == 0 }

// String renders the human-readable delta table.
func (c *Comparison) String() string {
	var b strings.Builder
	status := "PASS"
	if !c.Pass() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s: %d metrics checked, %d drifted within tolerance, %d failures\n",
		status, c.Experiment, c.Checked, len(c.Drifted), len(c.Failures))
	for _, f := range c.Failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	for _, d := range c.Drifted {
		fmt.Fprintf(&b, "  drift %s\n", d.String())
	}
	for _, n := range c.Notes {
		fmt.Fprintf(&b, "  note %s\n", n)
	}
	return b.String()
}

// metrics flattens one result into its comparable scalar metrics.
// omitempty zeros are genuinely absent (an untraced run has no
// percentiles), so zero-valued metrics are omitted here too: a metric
// present in the baseline but zero in the candidate reads as removed.
func metrics(r Result) map[string]uint64 {
	out := make(map[string]uint64, len(metricOrder)+len(r.CyclesByCause))
	scalar := map[string]uint64{
		"cycles":              r.Cycles,
		"pm_write_bytes_data": r.PMWriteBytesData,
		"pm_write_bytes_log":  r.PMWriteBytesLog,
		"pm_write_bytes":      r.PMWriteBytes,
		"tx_commits":          r.TxCommits,
		"commit_latency_p50":  r.CommitLatencyP50,
		"commit_latency_p95":  r.CommitLatencyP95,
		"commit_latency_p99":  r.CommitLatencyP99,
		"lazy_drain_p50":      r.LazyDrainP50,
		"lazy_drain_p95":      r.LazyDrainP95,
		"lazy_drain_p99":      r.LazyDrainP99,
		"wpq_occ_max_bytes":   r.WPQOccMaxBytes,
		"wpq_occ_avg_bytes":   r.WPQOccAvgBytes,
	}
	for name, v := range scalar {
		if v != 0 {
			out[name] = v
		}
	}
	for cause, v := range r.CyclesByCause {
		if v != 0 {
			out["cycles_by_cause."+cause] = v
		}
	}
	return out
}

// tolerance resolves the relative tolerance and absolute floor for a
// metric name.
func tolerance(metric string) (rel float64, floor uint64) {
	if strings.HasPrefix(metric, "cycles_by_cause.") {
		return TolCause, CauseFloorCycles
	}
	return metricTol[metric], 0
}

// Compare diffs a candidate document against its baseline. Direction
// is symmetric: a metric 6% *better* than baseline also fails, because
// it means the committed baseline no longer describes the tree and
// must be refreshed.
func Compare(baseline, candidate Report) *Comparison {
	c := &Comparison{Experiment: candidate.Experiment}
	if baseline.Experiment != candidate.Experiment {
		c.Failures = append(c.Failures,
			fmt.Sprintf("experiment mismatch: baseline %q vs candidate %q", baseline.Experiment, candidate.Experiment))
		return c
	}
	// A gate that reads nothing is not a gate.
	if len(baseline.Results) == 0 || len(candidate.Results) == 0 {
		c.Failures = append(c.Failures, fmt.Sprintf("baseline holds %d results, candidate %d: both must hold some",
			len(baseline.Results), len(candidate.Results)))
	}

	got := make(map[string]Result, len(candidate.Results))
	for _, r := range candidate.Results {
		got[r.Key()] = r
	}
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Key()] = r
	}

	keys := make([]string, 0, len(base))
	for k := range base { //slpmt:determinism-ok: collected keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		b := base[key]
		g, ok := got[key]
		if !ok {
			c.Failures = append(c.Failures, fmt.Sprintf("%s: result missing from candidate", key))
			continue
		}
		if b.VerifyOK && !g.VerifyOK {
			c.Failures = append(c.Failures, fmt.Sprintf("%s: verify_ok regressed", key))
		}
		compareResult(c, key, metrics(b), metrics(g))
	}

	extra := make([]string, 0)
	for k := range got { //slpmt:determinism-ok: collected keys are sorted below
		if _, ok := base[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		c.Notes = append(c.Notes, fmt.Sprintf("%s: result absent from baseline (refresh to cover it)", k))
	}
	return c
}

// compareResult diffs one result's metric maps in deterministic order.
func compareResult(c *Comparison, key string, base, got map[string]uint64) {
	names := make([]string, 0, len(base))
	for name := range base { //slpmt:determinism-ok: collected keys are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bv := base[name]
		gv, ok := got[name]
		if !ok {
			c.Failures = append(c.Failures, fmt.Sprintf("%s: metric %s removed (baseline %d)", key, name, bv))
			continue
		}
		c.Checked++
		if bv == gv {
			continue
		}
		rel, floor := tolerance(name)
		d := Delta{Key: key, Metric: name, Base: bv, Got: gv, Tolerance: rel}
		diff := bv - gv
		if gv > bv {
			diff = gv - bv
		}
		d.Rel = float64(diff) / float64(bv)
		d.OK = d.Rel <= rel || diff <= floor
		if d.OK {
			c.Drifted = append(c.Drifted, d)
		} else {
			c.Failures = append(c.Failures, d.String())
		}
	}
	extras := make([]string, 0)
	for name := range got { //slpmt:determinism-ok: collected keys are sorted below
		if _, ok := base[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		c.Notes = append(c.Notes, fmt.Sprintf("%s: metric %s new in candidate (%d; refresh the baseline to gate it)", key, name, got[name]))
	}
}
