package trace_test

import (
	"testing"

	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// summarize reduces evs through the streaming Summarizer, the one
// summary implementation, as the bench harness does for a ring.
func summarize(t *testing.T, evs []trace.Event, dropped uint64) trace.Summary {
	t.Helper()
	s := stream.NewSummarizer()
	st, err := stream.Feed(stream.Events(evs), s)
	if err != nil {
		t.Fatal(err)
	}
	return s.Summary(st.Events, dropped)
}

func TestSummarizePairsSpansPerCore(t *testing.T) {
	evs := []trace.Event{
		{Cycle: 0, Kind: trace.KTxBegin, Core: 0, Arg: 1},
		{Cycle: 5, Kind: trace.KTxBegin, Core: 1, Arg: 2},
		{Cycle: 100, Kind: trace.KTxCommit, Core: 0, Arg: 1}, // 100 cycles
		{Cycle: 305, Kind: trace.KTxCommit, Core: 1, Arg: 2}, // 300 cycles
		{Cycle: 400, Kind: trace.KTxBegin, Core: 0, Arg: 3},
		{Cycle: 450, Kind: trace.KTxAbort, Core: 0, Arg: 3}, // aborts don't count
		{Cycle: 500, Kind: trace.KLazyDrainStart, Core: 0, Arg: 1},
		{Cycle: 550, Kind: trace.KLazyDrainEnd, Core: 0, Arg: 1}, // 50 cycles
	}
	s := summarize(t, evs, 7)
	if s.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", s.Commits)
	}
	if s.CommitP50 != 100 || s.CommitP99 != 300 {
		t.Fatalf("commit percentiles = %d/%d, want 100/300", s.CommitP50, s.CommitP99)
	}
	if s.LazyDrains != 1 || s.LazyP50 != 50 {
		t.Fatalf("lazy = %d drains p50=%d, want 1/50", s.LazyDrains, s.LazyP50)
	}
	if s.Dropped != 7 || s.Events != len(evs) {
		t.Fatalf("bookkeeping: dropped=%d events=%d", s.Dropped, s.Events)
	}
}

func TestPercentilesNearestRank(t *testing.T) {
	xs := make([]uint64, 100)
	for i := range xs {
		xs[i] = uint64(i + 1) // 1..100
	}
	p50, p95, p99 := trace.Percentiles(xs)
	if p50 != 50 || p95 != 95 || p99 != 99 {
		t.Fatalf("percentiles = %d/%d/%d", p50, p95, p99)
	}
	if a, b, c := trace.Percentiles(nil); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty sample must yield zeros")
	}
}

// bucketWPQ folds evs through the streaming two-pass BucketWPQ.
func bucketWPQ(t *testing.T, evs []trace.Event, n int) *trace.WPQSeries {
	t.Helper()
	s, err := stream.BucketWPQ(stream.Events(evs), n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBucketWPQ(t *testing.T) {
	var evs []trace.Event
	// Occupancy ramps 64..640 over cycles 0..900, one stall at 450.
	for i := 0; i < 10; i++ {
		evs = append(evs, trace.Event{Cycle: uint64(i * 100), Kind: trace.KWPQEnqueue, Arg: uint64(64 * (i + 1))})
	}
	evs = append(evs, trace.Event{Cycle: 450, Kind: trace.KWPQStall, Arg: 33})
	evs = append(evs, trace.Event{Cycle: 890, Kind: trace.KWPQDrain, Arg: 0})
	s := bucketWPQ(t, evs, 2)
	if s == nil || len(s.Buckets) != 2 {
		t.Fatalf("series = %+v", s)
	}
	b0, b1 := s.Buckets[0], s.Buckets[1]
	if b0.OccMax != 64*5 {
		t.Fatalf("bucket 0 occ.max = %d", b0.OccMax)
	}
	if b0.StallCycles != 33 || b1.StallCycles != 0 {
		t.Fatalf("stall attribution: %d/%d", b0.StallCycles, b1.StallCycles)
	}
	if b1.OccMax != 640 || b1.Drains != 1 {
		t.Fatalf("bucket 1: %+v", b1)
	}
	if b0.Enqueues+b1.Enqueues != 10 {
		t.Fatalf("enqueue total = %d", b0.Enqueues+b1.Enqueues)
	}
	if bucketWPQ(t, []trace.Event{{Kind: trace.KStore}}, 4) != nil {
		t.Fatal("no WPQ events must yield a nil series")
	}
	if s.String() == "" {
		t.Fatal("series table must render")
	}
}
