package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// TestReadsStream streams one small 2-core run and reads it back: the
// dump lists its segments and events, and the critical-path replay of
// the saved binlog reproduces the report the run computed live.
func TestReadsStream(t *testing.T) {
	dir := t.TempDir()
	r := bench.Run(bench.RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 60, ValueSize: 64, Cores: 2,
		Verify: true, StreamDir: dir, CritPath: true})
	if r.VerifyErr != nil {
		t.Fatal(r.VerifyErr)
	}

	var out bytes.Buffer
	if err := run([]string{"-trace-stream", dir, "-records", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"closed=true", "first 3 events:", "[  2] core="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stream dump lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-trace-stream", dir, "-critpath", "-hotlines", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	_, report, _ := strings.Cut(out.String(), "\n\n")
	if want := r.CritPath.Render(5); report != want {
		t.Errorf("replayed critical path differs from the live one:\n%s\nlive:\n%s", report, want)
	}
}

func TestRequiresStream(t *testing.T) {
	if err := run(nil, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "-trace-stream is required") {
		t.Errorf("run without -trace-stream: %v", err)
	}
}
