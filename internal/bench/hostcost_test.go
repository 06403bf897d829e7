package bench

import (
	"runtime"
	"testing"
)

// TestHostBytesMultiSocketGroupCommit bounds the host heap bytes of one
// run of the 4-core, 2-socket, W=16 hashtable shape: the run whose
// grouped commits and rehash transactions pile the largest write sets,
// epoch line sets, commit walks and WPQ backlogs into the simulator's
// bookkeeping. A warm-up run first pays the process's one-time costs.
// The ceiling is about 10% over the measured 2.80 MB (4.77 MB before
// WPQ entries, line-set entries and commit-walk positions were packed,
// and before the hashtable reused its rehash buffers). Race
// instrumentation allocates on its own, so a race build skips it.
func TestHostBytesMultiSocketGroupCommit(t *testing.T) {
	if raceBuild {
		t.Skip("race instrumentation allocates on its own")
	}
	const ceiling = 3_080_000
	cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 4000, ValueSize: 256,
		Cores: 4, Sockets: 2, CommitWindow: 16}
	Run(cfg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	Run(cfg)
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%d host heap bytes, %.0f per insert", got, float64(got)/float64(cfg.N))
	if got > ceiling {
		t.Errorf("run allocated %d host heap bytes, want at most %d", got, ceiling)
	}
}
