package experiments

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/report"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// small keeps the smoke tests quick while still exercising resizes and
// splits.
func small() bench.RunConfig { return bench.RunConfig{N: 80, ValueSize: 32, Verify: true} }

func TestExperimentsSmoke(t *testing.T) {
	for _, name := range []string{"fig8", "fig9", "fig12", "fig14", "headline"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if _, err := new(Sweep).Run(&buf, name, small()); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}

// TestFig13Smoke: Fig13 returns three verified whole-run cells per
// kernel (FG, manual SLPMT, compiler replay), each under its own report
// key, so the compare gate reads every one.
func TestFig13Smoke(t *testing.T) {
	var buf bytes.Buffer
	res, err := new(Sweep).Run(&buf, "fig13", small())
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "compiler identified") {
		t.Errorf("missing coverage line:\n%s", out)
	}
	if want := 3 * len(workloads.Kernels()); len(res) != want {
		t.Fatalf("%d results, want %d", len(res), want)
	}
	keys := map[string]bool{}
	for _, r := range res {
		if r.VerifyErr != nil || r.Cycles == 0 || r.PMWriteBytes() == 0 {
			t.Errorf("%s/%s: cycles %d, PM writes %d, verify %v", r.Scheme, r.Workload, r.Cycles, r.PMWriteBytes(), r.VerifyErr)
		}
		keys[report.FromResult(r).Key()] = true
	}
	if len(keys) != len(res) {
		t.Errorf("%d distinct report keys for %d results", len(keys), len(res))
	}
}

// TestNamesMatchBaselines: every experiment has a committed baseline
// and every baseline names an experiment, so -experiment all -compare
// gates the whole registry.
func TestNamesMatchBaselines(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "baselines", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range paths {
		got = append(got, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
	}
	want := slices.Clone(Names())
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("baselines/ holds %v, the registry names %v", got, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := new(Sweep).Run(&bytes.Buffer{}, "fig99", small()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunChecksVerification: Run fails an experiment whose returned
// results include a failed invariant check, naming the first failed
// cell, even though the experiment itself returned no error.
func TestRunChecksVerification(t *testing.T) {
	ok := bench.Result{RunConfig: bench.RunConfig{Scheme: "FG", Workload: "avl"}}
	bad := bench.Result{RunConfig: bench.RunConfig{Scheme: "SLPMT", Workload: "heap", Cores: 2, CommitWindow: 4},
		VerifyErr: errors.New("heap order broken")}
	saved := registry
	defer func() { registry = saved }()
	registry = append(slices.Clip(registry), experiment{"fake", func(io.Writer, *sweep, bench.RunConfig) ([]bench.Result, error) {
		return []bench.Result{ok, bad, bad}, nil
	}, nil})

	res, err := new(Sweep).Run(io.Discard, "fake", bench.RunConfig{})
	if err == nil {
		t.Fatalf("a failed verification passed: %d results returned", len(res))
	}
	if want := "SLPMT/heap cores=2 W=4 failed verification: heap order broken"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

// Ignores names exactly the flags an experiment does not read and
// that differ from their defaults, so a default run prints no note.
func TestIgnores(t *testing.T) {
	off := bench.RunConfig{N: 200, Cores: 2, CommitWindow: 4, Sockets: 2, RemoteNanos: 50}
	for _, tc := range []struct {
		name string
		base bench.RunConfig
		want string
	}{
		{"mixes", bench.RunConfig{}, ""},
		{"mixes", bench.RunConfig{N: 1000, Cores: 1, CommitWindow: 1, Sockets: 1}, ""},
		{"mixes", off, "-n 200, -cores 2, -commit-window 4, -sockets 2, -remote-nanos 50"},
		{"fig13", bench.RunConfig{N: 1000, Cores: 1, CommitWindow: 1, Sockets: 1}, ""},
		{"fig13", off, "-cores 2, -commit-window 4, -sockets 2, -remote-nanos 50"},
		{"fig8", off, ""},
		{"all", off, ""},
	} {
		if got := strings.Join(Ignores(tc.name, tc.base), ", "); got != tc.want {
			t.Errorf("Ignores(%s, %+v) = %q, want %q", tc.name, tc.base, got, tc.want)
		}
	}
}

// TestSweepGridShape: a grid asks for its cells scheme-major, an
// experiment reports each cell once however often it asks, and a
// cell the Sweep holds is looked up rather than simulated again, from
// the same experiment or another one.
func TestSweepGridShape(t *testing.T) {
	s := new(Sweep)
	base := bench.RunConfig{N: 40, ValueSize: 16}
	sw := sweep{Sweep: s}
	if err := sw.grid([]string{"FG", "SLPMT"}, []string{"heap", "avl"}, base); err != nil {
		t.Fatal(err)
	}
	if err := sw.grid([]string{"SLPMT", "ATOM"}, []string{"avl", "avl"}, base); err != nil {
		t.Fatal(err)
	}
	other := sweep{Sweep: s}
	if err := other.grid([]string{"ATOM", "FG"}, []string{"avl"}, base); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sw   *sweep
		want []string
	}{
		{&sw, []string{"FG/heap", "FG/avl", "SLPMT/heap", "SLPMT/avl", "ATOM/avl"}},
		{&other, []string{"ATOM/avl", "FG/avl"}},
	} {
		var got []string
		for _, r := range tc.sw.results {
			got = append(got, r.Scheme+"/"+r.Workload)
			if r != sw.at(r.RunConfig) {
				t.Errorf("%s: the views hold different results", cellName(r.RunConfig))
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("results %v, want %v", got, tc.want)
		}
	}
	if s.Runs() != 5 {
		t.Errorf("%d runs for 5 distinct cells", s.Runs())
	}
	if bench.Speedup(sw.at(cell(base, "FG", "heap")), sw.at(cell(base, "SLPMT", "heap"))) <= 0 {
		t.Error("speedup not positive")
	}
}

// TestSweepAtPanicsOnMissingCell: looking up a cell the experiment
// never asked for panics naming it, even if another experiment on the
// same Sweep ran it, instead of returning a zero-cycle result.
func TestSweepAtPanicsOnMissingCell(t *testing.T) {
	s := new(Sweep)
	base := bench.RunConfig{N: 40, ValueSize: 16}
	sw, other := sweep{Sweep: s}, sweep{Sweep: s}
	if err := sw.grid([]string{"FG"}, []string{"heap"}, base); err != nil {
		t.Fatal(err)
	}
	if err := other.grid([]string{"SLPMT"}, []string{"heap"}, base); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []bench.RunConfig{cell(base, "SLMPT", "heap"), cell(base, "SLPMT", "heap")} {
		func() {
			want := "experiments: no run of " + cellName(cfg)
			defer func() {
				if r := recover(); r != want {
					t.Errorf("at(%s) panicked with %v, want %q", cellName(cfg), r, want)
				}
			}()
			sw.at(cfg)
		}()
	}
}

// TestSharedSweepMatchesStandalone: every experiment run through one
// shared Sweep, as "all" runs them, reports exactly what it reports run
// on its own (host fields aside), so no experiment depends on, or
// changes, a result another one simulated, and each result carries the
// RunConfig its experiment asked for. The shared run simulates each
// machine once per set of observation flags, where Cores, CommitWindow
// and Sockets of 0 and 1 name the same machine, and ablation reports
// each of its cells once.
func TestSharedSweepMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice; skipped in -short")
	}
	// The base slpmtbench -json passes: one core, profiled.
	base := bench.RunConfig{N: 24, ValueSize: 32, Verify: true, Cores: 1, Profile: true}
	doc := func(name string, results []bench.Result) report.Report {
		return report.FromResults(name, 0, 0, 0, 0, results)
	}
	shared := new(Sweep)
	spellings := map[bench.RunConfig]map[bench.RunConfig]bool{} // machine -> RunConfigs
	total := 0
	for _, name := range Names() {
		res, err := shared.Run(io.Discard, name, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		alone, err := new(Sweep).Run(io.Discard, name, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(doc(name, res), doc(name, alone)) {
			t.Errorf("%s: the shared run's document differs from the standalone run's", name)
		}
		if name == "fig13" {
			continue // its cells are whole runs it makes itself, not sweep cells
		}
		mine := map[bench.RunConfig]bool{}
		for _, r := range res {
			if mine[r.RunConfig] {
				t.Errorf("%s reports %s twice", name, cellName(r.RunConfig))
			}
			mine[r.RunConfig] = true
			m := r.RunConfig
			m.Cores, m.CommitWindow, m.Sockets = max(m.Cores, 1), max(m.CommitWindow, 1), max(m.Sockets, 1)
			if spellings[m] == nil {
				spellings[m] = map[bench.RunConfig]bool{}
			}
			spellings[m][r.RunConfig] = true
		}
		total += len(res)
		if name == "ablation" && len(res) != 8*len(workloads.Kernels()) {
			t.Errorf("ablation reports %d results, want its %d distinct cells", len(res), 8*len(workloads.Kernels()))
		}
	}
	respelled := 0
	for _, cfgs := range spellings {
		if len(cfgs) > 1 {
			respelled++
		}
	}
	if shared.Runs() != len(spellings) || respelled == 0 {
		t.Errorf("shared run simulated %d cells for %d distinct machines (%d asked for under two spellings) over %d results",
			shared.Runs(), len(spellings), respelled, total)
	}
}
