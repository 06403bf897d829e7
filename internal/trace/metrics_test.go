package trace_test

import (
	"testing"

	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// summarize reduces evs through the streaming Summarizer, the one
// summary implementation, as the bench harness does for a run's spills.
func summarize(t *testing.T, evs []trace.Event) trace.Summary {
	t.Helper()
	s := stream.NewSummarizer()
	st, err := stream.Feed(stream.Events(evs), s)
	if err != nil {
		t.Fatal(err)
	}
	return s.Summary(st.Events)
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
	s := summarize(t, evs)
	if s.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", s.Commits)
	}
	if s.CommitP50 != 100 || s.CommitP99 != 300 {
		t.Fatalf("commit percentiles = %d/%d, want 100/300", s.CommitP50, s.CommitP99)
	}
	if s.LazyDrains != 1 || s.LazyP50 != 50 {
		t.Fatalf("lazy = %d drains p50=%d, want 1/50", s.LazyDrains, s.LazyP50)
	}
	if s.Events != len(evs) {
		t.Fatalf("bookkeeping: events=%d", s.Events)
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
func bucketWPQ(t *testing.T, evs []trace.Event) *trace.WPQSeries {
	t.Helper()
	s, err := stream.BucketWPQ(stream.Events(evs))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBucketWPQ(t *testing.T) {
	var evs []trace.Event
	// One enqueue every 100 cycles, occupancy ramping 64..1024 over
	// cycles 0..1500, a stall at 450 and a drain to empty at 1599: the
	// span of 1599 cycles makes the buckets 100 cycles wide, one
	// enqueue each.
	for i := 0; i < stream.WPQBuckets; i++ {
		evs = append(evs, trace.Event{Cycle: uint64(i * 100), Kind: trace.KWPQEnqueue, Arg: uint64(64 * (i + 1))})
	}
	evs = append(evs, trace.Event{Cycle: 450, Kind: trace.KWPQStall, Arg: 33})
	evs = append(evs, trace.Event{Cycle: 1599, Kind: trace.KWPQDrain, Arg: 0})
	s := bucketWPQ(t, evs)
	if s == nil || len(s.Buckets) != stream.WPQBuckets {
		t.Fatalf("series = %+v", s)
	}
	last := stream.WPQBuckets - 1
	for i, b := range s.Buckets {
		if b.StartCycle != uint64(100*i) || b.EndCycle != uint64(100*(i+1)) {
			t.Fatalf("bucket %d spans [%d,%d)", i, b.StartCycle, b.EndCycle)
		}
		if b.Enqueues != 1 || b.OccMax != uint64(64*(i+1)) {
			t.Fatalf("bucket %d: %d enqueues, occ.max %d", i, b.Enqueues, b.OccMax)
		}
		var wantStall, wantDrains uint64
		if i == 4 {
			wantStall = 33
		}
		if i == last {
			wantDrains = 1
		}
		if b.StallCycles != wantStall || b.Drains != wantDrains {
			t.Fatalf("bucket %d: %d stall cycles and %d drains, want %d and %d",
				i, b.StallCycles, b.Drains, wantStall, wantDrains)
		}
	}
	if avg := s.Buckets[last].OccAvg; avg != 64*stream.WPQBuckets/2 {
		t.Fatalf("last bucket occ.avg = %d, want the mean of its enqueue and drain", avg)
	}
	if bucketWPQ(t, []trace.Event{{Kind: trace.KStore}}) != nil {
		t.Fatal("no WPQ events must yield a nil series")
	}
	if s.String() == "" {
		t.Fatal("series table must render")
	}
}
