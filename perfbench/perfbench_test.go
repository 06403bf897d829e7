package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/stats"
)

// testSize keeps every workload's round well under a second.
var testSize = sizing{
	loadN:       60,
	multiN:      200,
	mixRecords:  300,
	mixOps:      600,
	crashN:      12,
	crashStride: 9,
}

func mustBuild(t *testing.T, name string, seed uint64) workloadSpec {
	t.Helper()
	ws, err := buildWorkload(name, seed, testSize)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func checkClean(t *testing.T, label string, r *tally) {
	t.Helper()
	if r.failed != 0 || r.ops == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", label, r.failed, r.ops, r.errs)
	}
}

func simValues(r *tally) map[string]float64 {
	m := newMetricSet(endToEnd)
	simMetrics(m, r)
	return m.values
}

// TestSimulatedOutputIdentity runs every workload twice untraced and
// once traced: the simulated outcome (cycles, full counters, per-op
// cycles) and every sim-clock metric must be bit-identical, which also
// shows the traced run's observers are observation-only.
func TestSimulatedOutputIdentity(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ws := mustBuild(t, name, defaultSeed)
			a, b, traced := runRound(&ws, false), runRound(&ws, false), runRound(&ws, true)
			for label, r := range map[string]*tally{"first": a, "second": b, "traced": traced} {
				checkClean(t, label, r)
			}
			if a.digest() != b.digest() || a.digest() != traced.digest() {
				t.Fatalf("digests differ: %016x %016x traced %016x", a.digest(), b.digest(), traced.digest())
			}
			want := simValues(a)
			for label, r := range map[string]*tally{"second": b, "traced": traced} {
				if got := simValues(r); !equalMaps(got, want) {
					t.Errorf("%s sim metrics %v, want %v", label, got, want)
				}
			}
			if want["sim_cycles_per_op"] == 0 || want["pm_write_bytes_per_op"] == 0 {
				t.Errorf("sim metrics are zero: %v", want)
			}
			if traced.spans == nil || len(traced.spans.commit) == 0 {
				t.Error("traced round recorded no commit spans")
			}
		})
	}
}

func equalMaps(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestMatchesHarness pins the cell runner to internal/bench, which
// produces baselines/: one load-1c cell and one load-4c2s-w16 cell must
// reproduce bench.Run's cycles and counters for the same RunConfig.
func TestMatchesHarness(t *testing.T) {
	cases := []struct {
		workload string
		cell     int
		cfg      bench.RunConfig
	}{
		{"load-1c", 3*len(structures) + 0, bench.RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: testSize.loadN, CommitWindow: 1}},
		{"load-1c", 0*len(structures) + 5, bench.RunConfig{Scheme: "FG", Workload: "kv-ctree", N: testSize.loadN, CommitWindow: 1}},
		{"load-4c2s-w16", 1, bench.RunConfig{Scheme: "SLPMT", Workload: "kv-btree", N: testSize.multiN, Cores: 4, Sockets: 2, CommitWindow: 16}},
	}
	for _, tc := range cases {
		ws := mustBuild(t, tc.workload, defaultSeed)
		c := &ws.cells[tc.cell]
		if c.scheme != tc.cfg.Scheme || c.structure != tc.cfg.Workload {
			t.Fatalf("cell %d is %s, want %s/%s", tc.cell, c.name(), tc.cfg.Scheme, tc.cfg.Workload)
		}
		var r tally
		runCell(c, false, &r)
		checkClean(t, c.name(), &r)
		tc.cfg.ValueSize = valueSize
		tc.cfg.Seed = defaultSeed
		want := bench.Run(tc.cfg)
		got := r.sims[0]
		if got.cycles != want.Cycles {
			t.Errorf("%s: cycles %d, harness %d", c.name(), got.cycles, want.Cycles)
		}
		if g, w := withoutGauges(got.counters), withoutGauges(want.Counters); g != w {
			t.Errorf("%s: counters differ from the harness\n got %+v\nwant %+v", c.name(), g, w)
		}
	}
}

// withoutGauges clears the WPQ occupancy gauges, which the harness sets
// only on multi-core or traced runs.
func withoutGauges(c stats.Counters) stats.Counters {
	c.WPQOccMaxBytes, c.WPQOccAvgBytes = 0, 0
	return c
}

// TestSeedChangesInputs checks that the seed drives the generated
// inputs and that another seed still runs without a failed op.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"load-1c", "mix-1c"} {
		a := mustBuild(t, name, defaultSeed).cells[0].inputs()
		b := mustBuild(t, name, heldOutSeed).cells[0].inputs()
		if slices.EqualFunc(a.ops, b.ops, func(x, y op) bool { return x.key == y.key }) {
			t.Errorf("%s: seeds %d and %d generate the same key stream", name, defaultSeed, heldOutSeed)
		}
		again := mustBuild(t, name, defaultSeed).cells[0].inputs()
		if !slices.EqualFunc(a.ops, again.ops, func(x, y op) bool { return x.key == y.key && x.kind == y.kind }) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
	}
	for _, name := range workloadNames {
		ws := mustBuild(t, name, heldOutSeed)
		checkClean(t, name, runRound(&ws, false))
	}
}

// TestMixShape checks mix-1c's op blend and that the table size stays
// steady.
func TestMixShape(t *testing.T) {
	in := mixInputs(2000, 20000, defaultSeed)
	var n [numKinds]int
	for _, o := range in.ops {
		n[o.kind]++
	}
	share := func(k opKind) float64 { return float64(n[k]) / float64(len(in.ops)) }
	for k, want := range map[opKind]float64{opRead: 0.44, opScan: 0.02, opUpdate: 0.34, opDelete: 0.10, opInsert: 0.10} {
		if got := share(k); got < want*0.85 || got > want*1.15 {
			t.Errorf("%s share %.3f, want about %.2f", kindNames[k], got, want)
		}
	}
	if size := len(in.oracle); size < 1500 || size > 2500 {
		t.Errorf("table size drifted from 2000 to %d", size)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with
// the metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nprogram %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram %v", spec.PerLayer, perLayer)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/persistmem/slpmt/internal/cache.(*Cache).ForEach":            "cache",
		"github.com/persistmem/slpmt/internal/workloads/kvstore.(*ctree).insert": "workloads",
		"github.com/persistmem/slpmt/internal/logfmt.ParseRegion":                "recovery",
		"github.com/persistmem/slpmt/internal/signature.(*Sig).Add":              "engine",
		"github.com/persistmem/slpmt.(*Tx).StoreU64":                             "slpmt",
		"github.com/persistmem/slpmt/internal/trace.(*Tracer).Emit":              "other",
		"runtime.mallocgc":                     "runtime_gc",
		"runtime.memclrNoHeapPointers":         "runtime_gc",
		"runtime.memmove":                      "other",
		"main.apply":                           "other",
		"encoding/json.(*encodeState).marshal": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileLabels checks the pprof decoder against a real profile:
// only samples taken inside a labelled region are attributed.
func TestProfileLabels(t *testing.T) {
	cpu, err := startCPUProfile()
	if err != nil {
		t.Skip(err)
	}
	spin := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
	enterRegion()
	spin(300 * time.Millisecond)
	leaveRegion()
	spin(300 * time.Millisecond)
	pprof.SetGoroutineLabels(context.Background())
	shares, samples, err := cpu.stop()
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 || samples > 45 {
		t.Errorf("%d labelled samples for a 300 ms region", samples)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if samples > 0 && (total < 99.9 || total > 100.1) {
		t.Errorf("layer shares sum to %.2f%%", total)
	}
}
