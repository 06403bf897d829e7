package experiments

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
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
			if _, err := Run(&buf, name, small()); err != nil {
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
	res, err := Run(&buf, "fig13", small())
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
	if _, err := Run(&bytes.Buffer{}, "fig99", small()); err == nil {
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
	registry = append(slices.Clip(registry), experiment{"fake", func(io.Writer, bench.RunConfig) ([]bench.Result, error) {
		return []bench.Result{ok, bad, bad}, nil
	}, nil})

	res, err := Run(io.Discard, "fake", bench.RunConfig{})
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
