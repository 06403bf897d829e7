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

// perfettoDoc decodes a Perfetto export and counts its thread tracks,
// counter samples, spans and instants by name.
type perfettoDoc struct {
	threads  map[string]bool
	counters int
	spans    int
	instants map[string]int
}

func readPerfetto(t *testing.T, path string) perfettoDoc {
	t.Helper()
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
	pd := perfettoDoc{threads: map[string]bool{}, instants: map[string]int{}}
	for _, m := range doc.TraceEvents {
		switch m["ph"] {
		case "M":
			if m["name"] == "thread_name" {
				pd.threads[m["args"].(map[string]any)["name"].(string)] = true
			}
		case "C":
			pd.counters++
		case "X":
			pd.spans++
		case "i":
			pd.instants[m["name"].(string)]++
		}
	}
	return pd
}

// The acceptance path: a 2-core traced run must emit a Perfetto-loadable
// document with one named track per core and the WPQ counter track, and
// the text report must carry the latency histograms and WPQ series. The
// binlog it streams through lives in a temporary directory that is gone
// when the run returns.
func TestTracedRunEmitsPerfettoSchema(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	path := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if err := run([]string{"-workload", "hashtable", "-n", "80", "-value", "64", "-cores", "2", "-trace", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}

	for _, want := range []string{"commit latency (cycles): p50=", "WPQ occupancy over the run", "occ.max"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	pd := readPerfetto(t, path)
	if !pd.threads["core 0"] || !pd.threads["core 1"] {
		t.Errorf("per-core tracks missing: %v", pd.threads)
	}
	if pd.counters == 0 {
		t.Error("no WPQ counter-track samples exported")
	}
	if pd.spans == 0 {
		t.Error("no transaction spans exported")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("temporary binlog left behind: %v", left)
	}
}

// All five single-run flags on one 2-core SLPMT hashtable run: one
// binlog feeds every section, and every file lands.
func TestSingleRunAllSections(t *testing.T) {
	dir := t.TempDir()
	streamDir := filepath.Join(dir, "stream")
	tracePath, flamePath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "run.folded")
	var out bytes.Buffer
	if err := run([]string{"-workload", "hashtable", "-n", "80", "-value", "64", "-cores", "2",
		"-trace-stream", streamDir, "-trace", tracePath, "-flame", flamePath,
		"-sanitize", "-critpath", "-hotlines", "5"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"workload=hashtable scheme=SLPMT n=80 value=64B\ncycles=",
		"\ncycles/op=",
		"\ntx.commits ",
		"binlog: 1 segments in " + streamDir + ", closed=true",
		"telemetry: ",
		", 0 dropped",
		"commit latency (cycles): p50=",
		"WPQ occupancy over the run",
		"attributed core-cycles: ",
		"wrote " + flamePath,
		"wrote " + tracePath + " (",
		"persist-order sanitizer: 0 violations",
		"critical path: makespan ",
		"hot lines (top 5 of ",
		"wrote " + filepath.Join(streamDir, "critpath.txt"),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	for _, f := range []string{bench.TelemetryFile, "critpath.txt"} {
		if fi, err := os.Stat(filepath.Join(streamDir, f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (empty or missing)", f, err)
		}
	}
	rep, err := os.ReadFile(filepath.Join(streamDir, "critpath.txt"))
	if err != nil || !strings.Contains(text, "\n"+string(rep)) {
		t.Errorf("critpath.txt (%v) is not the printed report", err)
	}
	folded, err := os.ReadFile(flamePath)
	if err != nil || !strings.HasPrefix(string(folded), "SLPMT;hashtable;core0;") {
		t.Errorf("folded stacks %q (%v): want SLPMT;hashtable;core0;... lines", folded, err)
	}
	// -critpath's and -flame's attribution profile adds charge instants.
	if pd := readPerfetto(t, tracePath); pd.instants["charge"] == 0 || pd.spans == 0 {
		t.Errorf("trace export holds %d charge instants and %d spans; want both", pd.instants["charge"], pd.spans)
	}
}

// eventSections returns a run's or replay's output from its event
// count on, without the lines that name written files (only the live
// run writes critpath.txt).
func eventSections(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "\nevents: ")
	if i < 0 {
		t.Fatalf("no event sections in:\n%s", out)
	}
	var keep []string
	for _, l := range strings.SplitAfter(out[i:], "\n") {
		if !strings.HasPrefix(l, "wrote ") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "")
}

// TestReplayMatchesLiveRun streams one small 2-core run and replays its
// binlog: the dump lists its segments and events, and the replay's
// latency summary, WPQ series, sanitizer and critical-path sections are
// the live run's, byte for byte.
func TestReplayMatchesLiveRun(t *testing.T) {
	dir := t.TempDir()
	var live, replayed bytes.Buffer
	if err := run([]string{"-workload", "hashtable", "-n", "60", "-value", "64", "-cores", "2",
		"-trace-stream", dir, "-sanitize", "-critpath", "-hotlines", "5"}, &live); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", dir, "-records", "3", "-sanitize", "-critpath", "-hotlines", "5"}, &replayed); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"closed=true", "first 3 events:", "[  2] core=", "persist-order sanitizer: 0 violations", "critical path: makespan "} {
		if !strings.Contains(replayed.String(), want) {
			t.Errorf("replay lacks %q:\n%s", want, replayed.String())
		}
	}
	if got, want := eventSections(t, replayed.String()), eventSections(t, live.String()); got != want {
		t.Errorf("replayed sections differ from the live run's:\n%s\nlive:\n%s", got, want)
	}
}

// TestSimOutputMatchesPreRefactorGolden pins a single run's counter
// block to the golden captured from the pre-multi-core binaries
// (commit 4495805): every scheme's block for one hashtable load on the
// single-core platform is byte-identical.
func TestSimOutputMatchesPreRefactorGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_sim_hashtable_n150_v64.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-workload", "hashtable", "-scheme", "all", "-n", "150", "-value", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), string(golden); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("single-run output diverged from the golden at line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("single-run output has %d lines, the golden %d", len(gl), len(wl))
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
