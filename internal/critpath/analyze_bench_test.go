package critpath_test

import (
	"runtime"
	"sync"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

var recorded struct {
	once   sync.Once
	events []trace.Event
}

// fedAnalyzer records a 2-core hashtable run's measured region once
// (into a caller ring large enough to drop nothing) and returns a fresh
// analyzer that has consumed it.
func fedAnalyzer(tb testing.TB) *critpath.Analyzer {
	recorded.once.Do(func() {
		tr := trace.New(1 << 19)
		bench.Run(bench.RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 1200, ValueSize: 64, Cores: 2,
			CritPath: true, Trace: tr})
		if tr.Dropped() == 0 {
			recorded.events = tr.Events()
		}
	})
	if recorded.events == nil {
		tb.Fatal("the recording ring dropped events; enlarge it")
	}
	a := critpath.New()
	if _, err := stream.Feed(stream.Events(recorded.events), a); err != nil {
		tb.Fatal(err)
	}
	return a
}

// BenchmarkAnalyze times the analyzer's back half (walk, DAG slack,
// what-ifs, hot lines) over one recorded 2-core stream.
func BenchmarkAnalyze(b *testing.B) {
	a := fedAnalyzer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := a.Analyze(0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAnalyzeAllocs bounds the heap Analyze allocates per DAG node. The
// slack pass's only per-node slice is one 8-byte latest-finish slot; the
// path's steps and the wait edges bring the reading to about 22 bytes a
// node. A flattened copy of the DAG (32 bytes a node) or a per-node sort
// array would push it past the ceiling.
func TestAnalyzeAllocs(t *testing.T) {
	const ceiling = 24 // bytes per DAG node
	a := fedAnalyzer(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	an, err := a.Analyze(0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(an.Nodes)
	t.Logf("Analyze: %.1f bytes per DAG node over %d nodes", perNode, an.Nodes)
	if perNode > ceiling {
		t.Fatalf("Analyze allocated %.1f bytes per DAG node, ceiling %d", perNode, ceiling)
	}
}
