package trace_test

import (
	"fmt"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// TestSanitizeRealRuns sanitizes real benchmark executions live, on
// their full-detail streams, and requires them clean: the simulator
// must actually obey the persist-ordering rules the sanitizer encodes,
// across log modes, schemes with and without lazy persistency, and
// core counts.
func TestSanitizeRealRuns(t *testing.T) {
	cases := []struct {
		scheme string
		cores  int
		window int
	}{
		{"FG", 1, 0},
		{"EDE", 1, 0},
		{"SLPMT", 1, 0},
		{"SLPMT", 2, 0},
		{"SLPMT-redo", 1, 0},
		{"SLPMT-redo", 2, 0},
		// Group commit: the epoch-aware rules (rule 5) replace the
		// per-transaction marker ordering for committed-in-window txs.
		{"SLPMT", 1, 4},
		{"SLPMT", 2, 16},
		{"SLPMT-redo", 1, 4},
		{"SLPMT-redo", 2, 16},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%dc-w%d", tc.scheme, tc.cores, tc.window), func(t *testing.T) {
			rep := bench.Run(bench.RunConfig{
				Scheme:       tc.scheme,
				Workload:     "hashtable",
				N:            300,
				Cores:        tc.cores,
				CommitWindow: tc.window,
				StreamDir:    t.TempDir(),
			}).Sanitizer
			if rep == nil || rep.Transactions == 0 {
				t.Fatalf("sanitizer report %+v: no transactions replayed; emit sites missing?", rep)
			}
			if !rep.Clean() {
				max := len(rep.Violations)
				if max > 10 {
					max = 10
				}
				t.Fatalf("%d persist-order violations, first %d: %v",
					rep.Total, max, rep.Violations[:max])
			}
		})
	}
}
