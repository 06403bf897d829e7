package experiments_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/experiments"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// The goldens under testdata/ were captured from the pre-multi-core
// binaries (commit 4495805, single-core machine baked into every
// layer). These tests pin the refactor's central promise: with one
// core, every experiment's output is byte-identical to before the
// Core/Machine split.

// hostTimeLine matches report lines carrying host wall-clock readings
// (the Figure 13 compile-time table) — real time, not simulated time,
// so nondeterministic even between two runs of the same binary.
var hostTimeLine = regexp.MustCompile(`µs|ms\b`)

// maskHostTime blanks the value portion of host-time lines.
func maskHostTime(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if hostTimeLine.MatchString(l) {
			lines[i] = "<host-time line masked>"
		}
	}
	return strings.Join(lines, "\n")
}

// preRefactorNames is the experiment list of the pre-refactor "all"
// (everything but the later scaling, breakdown, window, numa, and
// critpath extensions, which did not exist when the goldens were
// captured). Its fig11 is gone: fig10 prints Figure 11's table after
// its own, where fig11's output stood.
func preRefactorNames() []string {
	later := map[string]bool{"scaling": true, "breakdown": true, "window": true, "numa": true, "critpath": true}
	var out []string
	for _, n := range experiments.Names() {
		if !later[n] {
			out = append(out, n)
		}
	}
	return out
}

func TestSingleCoreOutputMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_all_n120_v64.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct exactly what `-experiment all -n 120 -value 64`
	// printed before the refactor: the old experiment list, each
	// followed by a blank line, on the (default) single-core platform,
	// through one sweep as "all" runs them.
	base := bench.RunConfig{N: 120, ValueSize: 64, Verify: true}
	var buf bytes.Buffer
	sw := new(experiments.Sweep)
	for _, name := range preRefactorNames() {
		if _, err := sw.Run(&buf, name, base); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintln(&buf)
	}
	want := maskHostTime(string(golden))
	got := maskHostTime(buf.String())
	if got != want {
		t.Errorf("single-core experiment output diverged from pre-refactor golden%s",
			firstDiff(want, got))
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("\nline %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("\nline count differs: want %d, got %d", len(wl), len(gl))
}
