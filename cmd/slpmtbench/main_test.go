package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/report"
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
	if err := runOne(io.Discard, name, base, true); err != nil {
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

// TestMixesJSONRecordsEveryCell: the mixes experiment's cells are
// bench runs, so its document holds each (mix, scheme) cell once,
// verified.
func TestMixesJSONRecordsEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mixes grid; skipped in -short")
	}
	cells := map[string]bool{}
	for _, r := range checkSchema(t, genReport(t, "mixes", bench.RunConfig{ValueSize: 32, Verify: true})) {
		m := r.(map[string]any)
		cells[m["mix"].(string)+"/"+m["scheme"].(string)] = true
	}
	if len(cells) != 16 {
		t.Errorf("%d distinct mix/scheme cells, want 16: %v", len(cells), cells)
	}
}

// Inside -experiment all, an experiment that ignores a flag says so in
// one line before its table (an explicit -experiment rejects it).
func TestAllNotesIgnoredFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mixes grid; skipped in -short")
	}
	for _, tc := range []struct {
		name, want, title string
	}{
		{"mixes", "(mixes ignores -n 200, -cores 2, -commit-window 4, -sockets 2)", "YCSB mixes on kv-btree"},
		{"fig13", "(fig13 ignores -cores 2, -commit-window 4, -sockets 2)", "Figure 13 (left)"},
	} {
		var buf strings.Builder
		if err := runOne(&buf, tc.name, bench.RunConfig{N: 200, Cores: 2, CommitWindow: 4, Sockets: 2, ValueSize: 32}, false); err != nil {
			t.Fatal(err)
		}
		first, rest, _ := strings.Cut(buf.String(), "\n")
		if first != tc.want {
			t.Errorf("%s: first line %q, want %q", tc.name, first, tc.want)
		}
		if !strings.HasPrefix(rest, tc.title) {
			t.Errorf("%s: the note is not followed by its table:\n%s", tc.name, rest)
		}
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

// TestOutOfRangeFlags checks that numeric flags outside their range,
// unknown single-run scheme or workload names, modes that exclude each
// other and flags the chosen mode would ignore all fail as flag errors
// naming the flag, before any run starts. Unchecked, most of the range
// errors panic inside every job of the grid or the single run, -cores
// -2 silently runs one core, -hotlines 0 lists ten lines and -hotlines
// 100 sixty-four, -experiment mixes prints its default single-core
// table whatever -n, -cores, -commit-window or -sockets say, and
// -experiment fig13 its one-core tables. Field errors come first, so
// the rows that also set a single-run flag next to -experiment report
// the field.
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
		{[]string{"-scheme", "FG,nosuch"}, "-scheme nosuch: unknown scheme"},
		{[]string{"-sanitize"}, "-experiment: not read by a single run"},
		{[]string{"-replay", "x"}, "-experiment: not read by -replay"},
		{[]string{"-hotlines", "5"}, "-hotlines: not read by -experiment"},
		{[]string{"-writelat", "300"}, "-writelat: not read by -experiment"},
	} {
		err := run(append([]string{"-experiment", "headline"}, tc.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "mixes", "-cores", "2"}, "-cores 2: -experiment mixes ignores it"},
		{[]string{"-experiment", "mixes", "-commit-window", "4"}, "-commit-window 4: -experiment mixes ignores it"},
		{[]string{"-experiment", "mixes", "-sockets", "2"}, "-sockets 2: -experiment mixes ignores it"},
		{[]string{"-experiment", "mixes", "-n", "200"}, "-n 200: -experiment mixes ignores it"},
		{[]string{"-experiment", "fig13", "-cores", "2"}, "-cores 2: -experiment fig13 ignores it"},
		{[]string{"-experiment", "fig13", "-commit-window", "4"}, "-commit-window 4: -experiment fig13 ignores it"},
		{[]string{"-experiment", "fig13", "-sockets", "2", "-remote-nanos", "50"}, "-sockets 2: -experiment fig13 ignores it"},
		{[]string{"-experiment", "fig13", "-remote-nanos", "50"}, "-remote-nanos 50: -experiment fig13 ignores it"},
		{[]string{"-workload", "rbtree", "-replay", "x"}, "-workload: not read by -replay"},
		{[]string{"-workload", "rbtree", "-json"}, "-json: not read by a single run"},
		{[]string{"-workload", "rbtree", "-records", "3", "-follow"}, "-follow, -records: not read by a single run"},
		{[]string{"-workload", "rbtree", "-interval", "1000"}, "-interval needs -trace-stream"},
		{[]string{"-workload", "rbtree", "-hotlines", "5"}, "-hotlines needs -critpath"},
		{[]string{"-scheme", "all", "-trace", "x.json"}, "-scheme all: -trace-stream, -trace and -flame write one run's files"},
		{[]string{"-replay", "x", "-n", "10"}, "-n: not read by -replay"},
		{[]string{"-replay", "x", "-hotlines", "5"}, "-hotlines needs -critpath"},
		{[]string{"-workload", "rbtree", "-critpath", "-hotlines", "0"}, "-hotlines 0: must be 1..64"},
		{[]string{"-workload", "rbtree", "-critpath", "-hotlines", "-3"}, "-hotlines -3: must be 1..64"},
		{[]string{"-replay", "x", "-critpath", "-hotlines", "65"}, "-hotlines 65: must be 1..64"},
		{[]string{"-records", "3"}, "-records: not read by -experiment"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestCompareOneFailsOnMovedStep runs the gate on the committed
// critpath baseline as the candidate: it passes against the committed
// directory and fails, naming the path, against a copy whose first
// critical-path step ends one cycle later.
func TestCompareOneFailsOnMovedStep(t *testing.T) {
	committed, err := filepath.Abs(filepath.Join("..", "..", "baselines"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.Load(filepath.Join(committed, report.Filename("critpath")))
	if err != nil {
		t.Fatal(err)
	}
	moved := t.TempDir()
	t.Chdir(t.TempDir())
	if err := rep.Write(report.Filename("critpath")); err != nil {
		t.Fatal(err)
	}
	rep.Results[0].CritPathSteps[0].End++
	if err := rep.Write(filepath.Join(moved, report.Filename("critpath"))); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if ok, err := compareOne(&out, committed, "critpath"); !ok || err != nil {
		t.Fatalf("committed baseline against itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err := compareOne(&out, moved, "critpath")
	if ok || err != nil || !strings.Contains(out.String(), " critpath_steps[0].end_cycle: ") {
		t.Errorf("moved step: ok=%v err=%v, want a failure naming critpath_steps[0].end_cycle:\n%s", ok, err, out.String())
	}
}
