package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
)

// TestCritPathExperimentDeterministic runs the critpath experiment on
// the serial pool and on four workers and requires byte-identical
// output: the causal analysis must be a pure function of each cell's
// deterministic event stream, untouched by scheduling of the sweep
// itself. This is the -parallel half of the determinism contract (the
// streamed-vs-ring half is TestCritPathStreamedMatchesRing in
// internal/bench).
func TestCritPathExperimentDeterministic(t *testing.T) {
	cfg := bench.RunConfig{N: 60, ValueSize: 32, Verify: true}
	run := func(workers int) string {
		bench.SetParallelism(workers)
		defer bench.SetParallelism(0)
		var buf bytes.Buffer
		if _, err := Run(&buf, "critpath", cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.String()
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("critpath experiment diverges between serial and parallel sweeps:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
	for _, want := range []string{
		"conservation contract",
		"dominant critical cause",
		"what-if speedup bounds",
		"W->inf projection",
		"hottest contended lines",
		"(ok)",
	} {
		if !strings.Contains(serial, want) {
			t.Errorf("output missing %q:\n%s", want, serial)
		}
	}
	if strings.Contains(serial, "0 of 0") {
		t.Errorf("hot-line table empty:\n%s", serial)
	}
}
