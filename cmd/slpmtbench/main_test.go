package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// The BENCH_<experiment>.json documents are the machine-readable
// contract downstream tooling parses; these tests pin the schema
// across the per-core/aggregate stats split and check that the scaling
// experiment's file is deterministic and seed-stable.

// reportKeys are the top-level keys every report must carry.
var reportKeys = []string{
	"experiment", "parallel", "wall_ms", "runs", "total_ops", "results",
}

// resultKeys are the keys every per-run entry must carry.
var resultKeys = []string{
	"scheme", "workload", "n", "value_size", "cycles",
	"pm_write_bytes_data", "pm_write_bytes_log", "pm_write_bytes",
	"tx_commits", "verify_ok",
}

// genReport runs one experiment with -json collection in a temp dir
// and returns the decoded BENCH_<name>.json.
func genReport(t *testing.T, name string, base bench.RunConfig) map[string]any {
	t.Helper()
	t.Chdir(t.TempDir())
	if err := runOne(name, base, true); err != nil {
		t.Fatalf("runOne(%s): %v", name, err)
	}
	data, err := os.ReadFile("BENCH_" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_%s.json is not valid JSON: %v", name, err)
	}
	return doc
}

func checkSchema(t *testing.T, doc map[string]any) []any {
	t.Helper()
	for _, k := range reportKeys {
		if _, ok := doc[k]; !ok {
			t.Errorf("report missing key %q", k)
		}
	}
	results, ok := doc["results"].([]any)
	if !ok || len(results) == 0 {
		t.Fatalf("report has no results array")
	}
	for i, r := range results {
		m, ok := r.(map[string]any)
		if !ok {
			t.Fatalf("result %d is not an object", i)
		}
		for _, k := range resultKeys {
			if _, ok := m[k]; !ok {
				t.Errorf("result %d missing key %q", i, k)
			}
		}
		if ok := m["verify_ok"].(bool); !ok {
			t.Errorf("result %d failed verification", i)
		}
	}
	return results
}

func TestBenchJSONSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure grid; skipped in -short")
	}
	doc := genReport(t, "fig8", bench.RunConfig{N: 40, ValueSize: 32, Verify: true})
	checkSchema(t, doc)
	if doc["experiment"] != "fig8" {
		t.Errorf("experiment = %v", doc["experiment"])
	}
}

func TestScalingJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scaling sweep twice; skipped in -short")
	}
	base := bench.RunConfig{N: 32, ValueSize: 32, Verify: true}
	doc1 := genReport(t, "scaling", base)
	res1 := checkSchema(t, doc1)

	// Every (scheme, workload) must appear at cores 1, 2, 4, 8.
	seen := map[string]map[float64]bool{}
	for _, r := range res1 {
		m := r.(map[string]any)
		key := m["scheme"].(string) + "/" + m["workload"].(string)
		cores := 1.0
		if c, ok := m["cores"].(float64); ok {
			cores = c
		}
		if seen[key] == nil {
			seen[key] = map[float64]bool{}
		}
		seen[key][cores] = true
	}
	for key, cs := range seen {
		for _, want := range []float64{1, 2, 4, 8} {
			if !cs[want] {
				t.Errorf("%s missing cores=%v entry", key, want)
			}
		}
	}

	// Seed-stable: a second identical sweep produces identical results
	// (only host-time fields like wall_ms may differ).
	doc2 := genReport(t, "scaling", base)
	b1, _ := json.Marshal(doc1["results"])
	b2, _ := json.Marshal(doc2["results"])
	if string(b1) != string(b2) {
		t.Error("scaling results differ between two identical runs")
	}
}

// TestOutOfRangeFlags checks that numeric flags outside their range and
// unknown single-run scheme or workload names fail as flag errors
// naming the flag, before any run starts. Unchecked, most of these
// panic inside every job of the grid or the single run, and -cores -2
// silently runs one core.
func TestOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-commit-window", "-3"}, "-commit-window -3: must not be negative"},
		{[]string{"-n", "-5"}, "-n -5: must not be negative"},
		{[]string{"-value", "-8"}, "-value -8: must not be negative"},
		{[]string{"-sockets", "-1"}, "-sockets -1: must not be negative"},
		{[]string{"-cores", "20", "-commit-window", "4"}, "-cores 20: group commit (commit window 4) supports at most 8 cores"},
		{[]string{"-cores", "100"}, "-cores 100: must be 0..64"},
		{[]string{"-cores", "-2"}, "-cores -2: must be 0..64"},
		{[]string{"-cores", "-2", "-sanitize"}, "-cores -2"},
		{[]string{"-workload", "nosuch", "-sanitize"}, "-workload nosuch: unknown workload"},
		{[]string{"-scheme", "nosuch", "-flame", "x.folded"}, "-scheme nosuch: unknown scheme"},
	} {
		err := run(append([]string{"-experiment", "headline"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
