package critpath_test

import (
	"os"
	"runtime"
	"sync"
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

var recorded struct {
	once   sync.Once
	events []trace.Event
	err    error
}

// fedAnalyzer records a 2-core hashtable run's measured region once
// (its binlog, read back into memory) and returns a fresh analyzer that
// has consumed it.
func fedAnalyzer(tb testing.TB) *critpath.Analyzer {
	recorded.once.Do(func() {
		dir, err := os.MkdirTemp("", "critpath-fed-")
		if err != nil {
			recorded.err = err
			return
		}
		defer os.RemoveAll(dir)
		bench.Run(bench.RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 1200, ValueSize: 64, Cores: 2,
			CritPath: true, StreamDir: dir})
		d, err := stream.Open(dir)
		if err == nil {
			_, err = d.Iter(func(e trace.Event) { recorded.events = append(recorded.events, e) })
		}
		recorded.err = err
	})
	if recorded.err != nil {
		tb.Fatal(recorded.err)
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
		if _, err := a.Analyze(); err != nil {
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
	an, err := a.Analyze()
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

// TestConsumeBytesPerSegment bounds the heap the analyzer's intake
// allocates per coalesced charge segment. A segment is one word of its
// core's tiling; the slice's regrowth brings the reading to about 38
// bytes a segment. A 32-byte node per segment (core, cause, start and
// end) reads about 156 and fails the ceiling.
func TestConsumeBytesPerSegment(t *testing.T) {
	const (
		segments = 1 << 16
		ceiling  = 48 // bytes per segment
	)
	causes := [2]profile.Cause{profile.CauseCompute, profile.CauseLogSync}
	a := critpath.New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range segments {
		a.Consume(trace.Event{Cycle: 1000 + 10*uint64(i+1), Addr: uint64(causes[i%2]), Arg: 10, Kind: trace.KCharge})
	}
	runtime.ReadMemStats(&after)
	an, err := a.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if an.Nodes != segments {
		t.Fatalf("%d DAG nodes, want %d", an.Nodes, segments)
	}
	perSeg := float64(after.TotalAlloc-before.TotalAlloc) / segments
	t.Logf("Consume: %.1f bytes per segment over %d segments", perSeg, segments)
	if perSeg > ceiling {
		t.Fatalf("Consume allocated %.1f bytes per segment, ceiling %d", perSeg, ceiling)
	}
}
