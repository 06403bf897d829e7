package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The end-to-end and per-layer
// lists are mirrored in BENCHMARK.json (a test keeps the two in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the simulator sees and a change is gated
// on, on two clocks: host (what a run costs) and sim (the paper's
// metrics, deterministic per seed). Printed with --trace 0.
var endToEnd = []metricDef{
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_cycles_per_op", "cycles", "lower"},
	{"sim_op_cycles_p50", "cycles", "lower"},
	{"sim_op_cycles_p99", "cycles", "lower"},
	{"pm_write_bytes_per_op", "B", "lower"},
}

// hostTiming is the wall-clock speed of the simulator. The shared
// machines this runs on change speed by up to 2x over minutes, so these
// are reported as a trend, not gated: printed by name with --trace 0 and
// carried in the JSON with the per-layer metrics of --trace 1.
var hostTiming = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"host_op_us_p50", "us", "lower"},
	{"host_op_us_p99", "us", "lower"},
}

// simCauses are the cycle-attribution causes reported per layer, as
// core-cycles per op (sim.<cause>).
var simCauses = []string{
	"commit.data", "commit.marker", "log.sync", "log.persist", "log.append",
	"lazy.drain", "log.epoch", "coherence", "wpq.stall", "wpq.remote",
	"wpq.enqueue", "alloc.arena",
}

// hostLayers are the module layers the CPU profile's self time is
// folded into (host.<layer>.self_pct).
var hostLayers = []string{
	"cache", "engine", "logbuf", "machine", "pmem", "txheap", "slpmt",
	"workloads", "recovery", "ycsb", "runtime_gc",
}

// perLayer is printed with --trace 1. README.md lists, for each, the
// end-to-end metric and workload it should move.
var perLayer = func() []metricDef {
	out := append([]metricDef(nil), hostTiming...)
	for _, l := range hostLayers {
		out = append(out, metricDef{"host." + l + ".self_pct", "%", "lower"})
	}
	for _, c := range simCauses {
		out = append(out, metricDef{"sim." + c, "cycles/op", "lower"})
	}
	out = append(out,
		metricDef{"cache.l1_hit_ratio", "ratio", "higher"},
		metricDef{"cache.l2_hit_ratio", "ratio", "higher"},
		metricDef{"cache.l3_hit_ratio", "ratio", "higher"},
		metricDef{"pm.read_bytes_per_op", "B/op", "lower"},
		metricDef{"engine.commit_us_p50", "us", "lower"},
		metricDef{"engine.commit_us_p99", "us", "lower"},
		metricDef{"engine.store_us_p50", "us", "lower"},
		metricDef{"engine.load_us_p50", "us", "lower"},
		metricDef{"engine.drain_ms", "ms", "lower"},
		metricDef{"engine.epoch_closes_per_op", "count/op", "lower"},
		metricDef{"lazy.deferred_lines_per_op", "count/op", "higher"},
		metricDef{"lazy.elided_ratio", "ratio", "higher"},
		metricDef{"lazy.signature_hits_per_op", "count/op", "lower"},
		metricDef{"log.records_created_per_op", "count/op", "lower"},
		metricDef{"log.coalesce_ratio", "ratio", "higher"},
		metricDef{"log.records_persisted_per_op", "count/op", "lower"},
		metricDef{"log.bytes_per_op", "B/op", "lower"},
		metricDef{"log.buffer_stalls_per_op", "count/op", "lower"},
		metricDef{"machine.coh_snoops_per_op", "count/op", "lower"},
		metricDef{"machine.coh_invalidations_per_op", "count/op", "lower"},
		metricDef{"pmem.write_entries_per_op", "count/op", "lower"},
		metricDef{"pmem.wpq_occ_max_bytes", "B", "lower"},
		metricDef{"pmem.wpq_occ_avg_bytes", "B", "lower"},
		metricDef{"pmem.socket_enqueue_imbalance", "ratio", "lower"},
		metricDef{"txheap.alloc_us_p50", "us", "lower"},
		metricDef{"heap.allocs_per_op", "count/op", "lower"},
		metricDef{"heap.frees_per_op", "count/op", "lower"},
		metricDef{"slpmt.sched_overhead_pct", "%", "lower"},
		metricDef{"slpmt.new_ms", "ms", "lower"},
	)
	for _, k := range kindNames {
		out = append(out, metricDef{"workloads.op_us_p50." + k, "us", "lower"})
	}
	out = append(out,
		metricDef{"workloads.setup_ms", "ms", "lower"},
		metricDef{"workloads.verify_ms", "ms", "lower"},
		metricDef{"recovery.campaign_ms", "ms", "lower"},
		metricDef{"recovery.records_applied_per_point", "count", "lower"},
		metricDef{"recovery.leaked_bytes", "B", "lower"},
	)
	for _, s := range schemeNames {
		out = append(out, metricDef{"sim_cycles_per_op." + s, "cycles", "lower"})
	}
	for _, s := range schemeNames {
		out = append(out, metricDef{"pm_write_bytes_per_op." + s, "B", "lower"})
	}
	return append(out, metricDef{"tracing.overhead_ops_per_s", "1/s", "higher"})
}()

// metricSet holds one run's reported values and the sample count behind
// each median or percentile (0 where the value is not a sample
// statistic).
type metricSet struct {
	defs    []metricDef
	values  map[string]float64
	samples map[string]int
	notes   []string // human-readable detail lines
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, samples: map[string]int{}}
}

func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = v
}

func (m *metricSet) setN(name string, v float64, n int) {
	m.set(name, v)
	m.samples[name] = n
}

// printLine writes one metric with its unit and sample count.
func (m *metricSet) printLine(w io.Writer, d metricDef, suffix string) {
	line := fmt.Sprintf("%-40s %16.6g %-9s", d.Name, m.values[d.Name], d.Unit)
	if n := m.samples[d.Name]; n > 0 {
		line += fmt.Sprintf(" (n=%d)", n)
	}
	fmt.Fprintln(w, line+suffix)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations converts durations to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
