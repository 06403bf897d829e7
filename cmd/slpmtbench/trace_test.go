package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// The acceptance path: a 2-core traced run must emit a Perfetto-loadable
// document with one named track per core and the WPQ counter track, and
// the text report must carry the latency histograms and WPQ series.
func TestTracedRunEmitsPerfettoSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	cfg := bench.RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 80, ValueSize: 64, Cores: 2, Verify: true}
	if err := runTraced(&out, cfg, path); err != nil {
		t.Fatalf("runTraced: %v", err)
	}

	for _, want := range []string{"commit latency (cycles): p50=", "WPQ occupancy over the run", "occ.max"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export holds no events")
	}
	threads := map[string]bool{}
	counter := 0
	spans := 0
	for _, m := range doc.TraceEvents {
		switch m["ph"] {
		case "M":
			if m["name"] == "thread_name" {
				threads[m["args"].(map[string]any)["name"].(string)] = true
			}
		case "C":
			counter++
		case "X":
			spans++
		}
	}
	if !threads["core 0"] || !threads["core 1"] {
		t.Errorf("per-core tracks missing: %v", threads)
	}
	if counter == 0 {
		t.Error("no WPQ counter-track samples exported")
	}
	if spans == 0 {
		t.Error("no transaction spans exported")
	}
}

// The scaling report's per-run entries must surface the interval
// metrics (commit percentiles and occupancy gauges) for every cell.
func TestScalingJSONCarriesIntervalMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scaling sweep; skipped in -short")
	}
	doc := genReport(t, "scaling", bench.RunConfig{N: 32, ValueSize: 32, Verify: true})
	results := checkSchema(t, doc)
	for i, r := range results {
		m := r.(map[string]any)
		if _, ok := m["commit_latency_p50"]; !ok {
			t.Errorf("result %d missing commit_latency_p50", i)
		}
		if _, ok := m["wpq_occ_max_bytes"]; !ok {
			t.Errorf("result %d missing wpq_occ_max_bytes", i)
		}
	}
}
