package report

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/schemes"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// TestSchemaRoundTrip pins the wire keys and the write format
// (2-space indent, trailing newline) against a real profiled run.
func TestSchemaRoundTrip(t *testing.T) {
	r := bench.Run(bench.RunConfig{
		Scheme: schemes.SLPMT, Workload: "hashtable",
		N: 30, ValueSize: 32, Verify: true, Profile: true,
	})
	rep := FromResults("headline", 1, 5*time.Millisecond, 300, 3000, []bench.Result{r})
	path := filepath.Join(t.TempDir(), Filename("headline"))
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "headline" || back.Runs != 1 || len(back.Results) != 1 {
		t.Fatalf("round trip lost the document: %+v", back)
	}
	got := back.Results[0]
	if got.Cycles != r.Cycles || got.TxCommits != r.Counters.TxCommits || !got.VerifyOK {
		t.Errorf("scalar fields lost: %+v", got)
	}
	if len(got.CyclesByCause) == 0 {
		t.Fatal("profiled run produced no cycles_by_cause")
	}
	var sum uint64
	for _, v := range got.CyclesByCause {
		sum += v
	}
	if sum != r.Cycles {
		t.Errorf("cycles_by_cause sums to %d, want the run's %d cycles", sum, r.Cycles)
	}
	if c := Compare(back, back); !c.Pass() {
		t.Errorf("document does not compare equal to itself:\n%s", c)
	}
}

// TestLoadRejectsUnknownField: a document holding a field Result does
// not know fails to load, so the exact gate cannot lose it unread.
func TestLoadRejectsUnknownField(t *testing.T) {
	path := filepath.Join(t.TempDir(), Filename("headline"))
	doc := `{"experiment": "headline", "results": [{"scheme": "SLPMT", "workload": "hashtable", "cycles": 1, "retired_field": 2}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "retired_field") {
		t.Errorf("Load = %v, want an error naming the unknown field", err)
	}
}

// TestLoadRejectsRepeatedKey: a document holding two results under one
// Key fails to load, naming the key, whether or not their values
// agree: an experiment reports each of its cells once, so the gate
// pairs results by key alone.
func TestLoadRejectsRepeatedKey(t *testing.T) {
	rep := fixture()
	twin := rep.Results[0]
	twin.Cycles++
	rep.Results = append(rep.Results, twin)
	path := filepath.Join(t.TempDir(), Filename("headline"))
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "share the key "+key) {
		t.Errorf("Load = %v, want an error naming the key %s", err, key)
	}
	rep.Results[1].Cores = 2
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Errorf("distinct keys: Load = %v", err)
	}
}

// TestResultSortAndKey pins the stable order and the comparability key.
func TestResultSortAndKey(t *testing.T) {
	a := bench.Result{RunConfig: bench.RunConfig{Scheme: "FG", Workload: "hashtable", N: 10, ValueSize: 8}}
	b := bench.Result{RunConfig: bench.RunConfig{Scheme: "FG", Workload: "hashtable", N: 10, ValueSize: 8, Cores: 2}}
	c := bench.Result{RunConfig: bench.RunConfig{Scheme: "EDE", Workload: "hashtable", N: 10, ValueSize: 8}}
	rep := FromResults("x", 0, 0, 0, 0, []bench.Result{b, a, c})
	want := []string{"EDE", "FG", "FG"}
	for i, r := range rep.Results {
		if r.Scheme != want[i] {
			t.Fatalf("sort order wrong: %+v", rep.Results)
		}
	}
	if rep.Results[1].Key() == rep.Results[2].Key() {
		t.Error("cores not part of the result key")
	}
	if rep.Results[1].Key() != FromResult(a).Key() {
		t.Error("key not stable for equal configs")
	}
}

// TestCauseHelpCoversCauses mirrors the slpmtvet check at runtime:
// every cause renders a nonempty explanation in the report.
func TestCauseHelpCoversCauses(t *testing.T) {
	for _, c := range profile.Causes() {
		if CauseHelp(c.String()) == "" {
			t.Errorf("cause %s has no help text", c)
		}
	}
	if CauseHelp("no.such.cause") != "" {
		t.Error("unknown cause got help text")
	}
}

// TestRenderHTML sanity-checks the self-contained report: valid
// skeleton, no external references, and every section present when a
// multi-core profiled document is rendered.
func TestRenderHTML(t *testing.T) {
	var results []bench.Result
	for _, scheme := range []string{schemes.FG, schemes.SLPMT} {
		for _, cores := range []int{1, 2} {
			results = append(results, bench.Run(bench.RunConfig{
				Scheme: scheme, Workload: "hashtable",
				N: 30, ValueSize: 32, Verify: true, Profile: true, Metrics: true, Cores: cores,
			}))
		}
	}
	rep := FromResults("scaling", 1, time.Millisecond, 0, 0, results)
	var sb strings.Builder
	if err := RenderHTML(&sb, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "</html>", "experiment: scaling",
		"cycle attribution", "scheme vs scheme", "WPQ occupancy",
		"latency percentiles", "<svg", "log.append",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "http://", "https://"} {
		if strings.Contains(out, banned) {
			t.Errorf("report is not self-contained: found %q", banned)
		}
	}

	// Deterministic for a given input.
	var sb2 strings.Builder
	if err := RenderHTML(&sb2, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("render is not deterministic")
	}
}

// TestFig13CompilerSpeedupRows renders the committed fig13 baseline:
// each kernel's "scheme vs scheme" table carries one row for its
// compiler replay, with the speedup over the kernel's FG run.
func TestFig13CompilerSpeedupRows(t *testing.T) {
	rep, err := Load(filepath.Join("..", "..", "baselines", Filename("fig13")))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderHTML(&sb, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	groups := buildDeltas(rep.Results)
	var kernels []string
	for _, r := range rep.Results {
		kernel, ok := strings.CutSuffix(r.Workload, compilerSuffix)
		if !ok {
			continue
		}
		kernels = append(kernels, kernel)
		var fg uint64
		for _, q := range rep.Results {
			if q.Workload == kernel && q.Scheme == schemes.FG {
				fg = q.Cycles
			}
		}
		rows := 0
		for _, g := range groups {
			for _, row := range g.Rows {
				if row.Scheme != r.Scheme+compilerSuffix || !strings.Contains(g.Label, kernel+" ") {
					continue
				}
				rows++
				if g.Baseline != schemes.FG || row.Speedup != float64(fg)/float64(r.Cycles) {
					t.Errorf("%s: compiler row %+v against %s, want the speedup over FG's %d cycles", kernel, row, g.Baseline, fg)
				}
			}
		}
		if rows != 1 {
			t.Errorf("%s: %d compiler speedup rows, want 1", kernel, rows)
		}
		row := fmt.Sprintf("<td class=\"l\">%s%s</td><td>%d</td><td>%.2fx</td>", r.Scheme, compilerSuffix, r.Cycles, float64(fg)/float64(r.Cycles))
		if strings.Count(out, row) != 1 {
			t.Errorf("%s: report.html holds %d copies of %q, want 1", kernel, strings.Count(out, row), row)
		}
	}
	if len(kernels) != 4 {
		t.Errorf("fig13 baseline has compiler replays of %q, want 4 kernels", kernels)
	}
}

// TestStreamedRunReport pins the streaming addition to the schema: a
// streamed run's document carries the telemetry interval series under
// the "intervals" wire key.
func TestStreamedRunReport(t *testing.T) {
	r := bench.Run(bench.RunConfig{
		Scheme: schemes.SLPMT, Workload: "hashtable",
		N: 60, ValueSize: 32, Verify: true,
		StreamDir: t.TempDir(), StreamInterval: 1 << 12,
	})
	rep := FromResults("headline", 1, time.Millisecond, 0, 0, []bench.Result{r})
	if len(rep.Results[0].Intervals) == 0 {
		t.Fatal("streamed run produced no interval series")
	}
	data, err := json.Marshal(rep.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["intervals"]; !ok {
		t.Error(`streamed result missing "intervals" wire key`)
	}
}

// TestJSONKeys pins the exact wire names — external scripts parse
// these documents, so renames are breaking changes.
func TestJSONKeys(t *testing.T) {
	rep := fixture()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"experiment", "parallel", "wall_ms", "runs", "total_ops", "allocs_per_op", "bytes_per_op", "results"} {
		if _, ok := top[k]; !ok {
			t.Errorf("report key %q missing", k)
		}
	}
	var results []map[string]json.RawMessage
	if err := json.Unmarshal(top["results"], &results); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"scheme", "workload", "n", "value_size", "cycles",
		"pm_write_bytes_data", "pm_write_bytes_log", "pm_write_bytes",
		"tx_commits", "verify_ok", "commit_latency_p50", "cycles_by_cause"} {
		if _, ok := results[0][k]; !ok {
			t.Errorf("result key %q missing", k)
		}
	}
}
