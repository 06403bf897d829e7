package bench

import (
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"
)

// TestHostBytesMultiSocketGroupCommit bounds the host heap bytes of one
// run of the 4-core, 2-socket, W=16 hashtable shape: the run whose
// grouped commits and rehash transactions pile the largest write sets,
// epoch line sets, commit walks and WPQ backlogs into the simulator's
// bookkeeping. A warm-up run first pays the process's one-time costs.
// The ceiling is about 10% over the measured 70.6–71.9 KB (104.5–105.7
// KB before the commit walk marked a bitmap and the heap's free-extent
// lists took fixed room in the block index's mapping, 0.64–0.65 MB
// before grown WPQ backlogs and line sets went back to
// process-wide free lists, 1.20 MB before grown lazy lists and extent
// logs did, 1.73 MB before lazy log-free lines left the write set for the
// transaction's own lazy list and the heap's extent log grew by
// doubling, 2.24 MB before the heap's one extent log per handle and the
// WPQ backlog's doubling growth, 2.80 MB before the heap's block index
// and the log buffer's own payload storage, 4.77 MB before WPQ entries,
// line-set entries and commit-walk positions were packed and the
// hashtable reused its rehash buffers). Race instrumentation allocates
// on its own, so a race build skips it.
func TestHostBytesMultiSocketGroupCommit(t *testing.T) {
	if raceBuild {
		t.Skip("race instrumentation allocates on its own")
	}
	cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 4000, ValueSize: 256,
		Cores: 4, Sockets: 2, CommitWindow: 16}
	checkHostBytes(t, cfg, 79_000)
}

// TestHostBytesSingleCoreLoad bounds the host heap bytes of one
// single-core hashtable load (1,000 inserts of 256 B) under FG and under
// SLPMT: per-transaction work with no epochs, where the heap's block
// index and the log buffer's payload storage replaced per-platform map
// and arena growth. A warm-up run first pays the process's one-time
// costs. Each ceiling is about 10% over the largest of a few
// measurements. SLPMT measures 18.1–18.2 KB (25.5–25.6 KB before the
// commit walk's bitmap and the heap's fixed free-extent lists; 156–161
// KB before grown
// WPQ backlogs and line sets went back to process-wide free lists;
// 270 KB before grown lazy lists and extent logs did; 385 KB before lazy
// log-free lines left the write set and the heap's extent log grew by
// doubling; 477 KB before the heap's one extent log per handle and the
// WPQ backlog's doubling growth; 603 KB before the block index and
// buffer-owned payloads). FG measures 18.8–18.9 KB (59.7–59.8 KB
// before the bitmap and the fixed lists, 335–340 KB before the backlogs
// and line sets, 351 KB before the lazy lists and extent logs; 384 KB
// and 997 KB before the two changes before that). Race instrumentation
// allocates on its own, so a race build skips it.
func TestHostBytesSingleCoreLoad(t *testing.T) {
	if raceBuild {
		t.Skip("race instrumentation allocates on its own")
	}
	for _, tc := range []struct {
		scheme  string
		ceiling uint64
	}{{"FG", 20_700}, {"SLPMT", 20_000}} {
		t.Run(tc.scheme, func(t *testing.T) {
			checkHostBytes(t, RunConfig{Scheme: tc.scheme, Workload: "hashtable", N: 1000, ValueSize: 256}, tc.ceiling)
		})
	}
}

// checkHostBytes runs cfg once to warm up, then fails if a second run
// allocates more than ceiling host heap bytes. The process's TotalAlloc
// also counts what the runtime allocates for itself, so the measured
// run starts right after a garbage collection, runs with the collector
// off, and is run again (up to three times) when the runtime started an
// OS thread during it, which allocates 5,248 bytes.
func checkHostBytes(t *testing.T, cfg RunConfig, ceiling uint64) {
	t.Helper()
	Run(cfg)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	threads := pprof.Lookup("threadcreate")
	var got uint64
	for try := 0; try < 3; try++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		n0 := threads.Count()
		runtime.ReadMemStats(&m0)
		Run(cfg)
		runtime.ReadMemStats(&m1)
		got = m1.TotalAlloc - m0.TotalAlloc
		if threads.Count() == n0 {
			break
		}
		t.Logf("%d host heap bytes with a new OS thread; measuring again", got)
	}
	t.Logf("%d host heap bytes, %.0f per insert", got, float64(got)/float64(cfg.N))
	if got > ceiling {
		t.Errorf("run allocated %d host heap bytes, want at most %d", got, ceiling)
	}
}
