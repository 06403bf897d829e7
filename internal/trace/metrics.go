package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Summary holds a trace's transaction-lifecycle latency percentiles,
// as the streaming Summarizer (internal/trace/stream) pairs them per
// core. Latencies are in cycles. Commit latency is the full
// begin-to-commit-complete span (the transaction's durability
// latency); lazy-drain latency is the posted drain section's span. The
// struct is flat and comparable so harness Results carrying it stay
// comparable.
type Summary struct {
	Events int

	Commits                         int
	CommitP50, CommitP95, CommitP99 uint64

	LazyDrains                int
	LazyP50, LazyP95, LazyP99 uint64
}

// Percentiles returns the p50/p95/p99 of xs by nearest-rank on the
// sorted sample (0s for an empty sample). xs is sorted in place. The
// streaming summarizer (internal/trace/stream) uses it for its exact
// samples.
func Percentiles(xs []uint64) (p50, p95, p99 uint64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	at := func(q int) uint64 { return xs[(q*len(xs)+99)/100-1] }
	return at(50), at(95), at(99)
}

// String renders the summary as one report line per histogram.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "commit latency (cycles): p50=%d p95=%d p99=%d over %d commits\n",
		s.CommitP50, s.CommitP95, s.CommitP99, s.Commits)
	if s.LazyDrains > 0 {
		fmt.Fprintf(&b, "lazy-drain latency (cycles): p50=%d p95=%d p99=%d over %d drains\n",
			s.LazyP50, s.LazyP95, s.LazyP99, s.LazyDrains)
	}
	return b.String()
}

// WPQBucket is one time bucket of the WPQ-occupancy/stall series.
type WPQBucket struct {
	StartCycle, EndCycle uint64
	// OccMax and OccAvg are the maximum and mean occupancy (bytes)
	// over the bucket's enqueue/drain samples.
	OccMax, OccAvg uint64
	// StallCycles sums the WPQ-full stalls charged inside the bucket.
	StallCycles uint64
	Enqueues    uint64
	Drains      uint64
}

// WPQSeries is the time-bucketed WPQ activity of one run (see
// stream.BucketWPQ).
type WPQSeries struct {
	Buckets []WPQBucket
}

// String renders the series as an aligned text table.
func (s *WPQSeries) String() string {
	if s == nil || len(s.Buckets) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s  %9s  %9s  %12s  %8s  %8s\n",
		"cycles", "occ.max", "occ.avg", "stall.cycles", "enqueues", "drains")
	for _, bk := range s.Buckets {
		fmt.Fprintf(&b, "%-22s  %9d  %9d  %12d  %8d  %8d\n",
			fmt.Sprintf("[%d,%d)", bk.StartCycle, bk.EndCycle),
			bk.OccMax, bk.OccAvg, bk.StallCycles, bk.Enqueues, bk.Drains)
	}
	return b.String()
}
