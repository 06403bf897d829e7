package experiments

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
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

func TestFig13Smoke(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(&buf, "fig13", small()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "compiler identified") {
		t.Errorf("missing coverage line:\n%s", out)
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
	}})

	res, err := Run(io.Discard, "fake", bench.RunConfig{})
	if err == nil {
		t.Fatalf("a failed verification passed: %d results returned", len(res))
	}
	if want := "SLPMT/heap cores=2 W=4 failed verification: heap order broken"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

// MixesIgnores names exactly the flags that differ from the defaults
// mixes runs at, so a default run prints no note.
func TestMixesIgnores(t *testing.T) {
	for _, base := range []bench.RunConfig{{}, {N: 1000, Cores: 1, CommitWindow: 1, Sockets: 1}} {
		if ig := MixesIgnores(base); len(ig) != 0 {
			t.Errorf("%+v: defaults reported as ignored: %v", base, ig)
		}
	}
	got := strings.Join(MixesIgnores(bench.RunConfig{N: 200, Cores: 2, CommitWindow: 4, Sockets: 2}), ", ")
	if want := "-n 200, -cores 2, -commit-window 4, -sockets 2"; got != want {
		t.Errorf("MixesIgnores = %q, want %q", got, want)
	}
}
