package stream

import "github.com/persistmem/slpmt/internal/trace"

// WPQBuckets is the number of time buckets BucketWPQ folds a stream
// into.
const WPQBuckets = 16

// BucketWPQ folds a source's WPQ events into WPQBuckets equal time
// buckets spanning the stream's WPQ activity, in two passes — pass one
// finds the activity span in O(1) state, pass two fills the buckets —
// so the series never needs the events in memory. The last bucket ends
// past the final event (the width is ceil'd). Returns nil if the
// stream holds no WPQ events.
func BucketWPQ(src Source) (*trace.WPQSeries, error) {
	const n = WPQBuckets
	wpq := trace.Mask(trace.KWPQEnqueue, trace.KWPQDrain, trace.KWPQStall)
	var lo, hi uint64
	seen := false
	if _, err := src.Iter(func(e trace.Event) {
		if wpq&(1<<uint(e.Kind)) != 0 {
			if !seen || e.Cycle < lo {
				lo = e.Cycle
			}
			hi, seen = max(hi, e.Cycle), true
		}
	}); err != nil || !seen {
		return nil, err
	}
	width := max((hi-lo+uint64(n))/uint64(n), 1) // ceil so hi lands in the last bucket
	buckets := make([]trace.WPQBucket, n)
	sums := make([]uint64, n)
	samples := make([]uint64, n)
	for i := range buckets {
		buckets[i].StartCycle = lo + uint64(i)*width
		buckets[i].EndCycle = lo + uint64(i+1)*width
	}
	if _, err := src.Iter(func(e trace.Event) {
		if wpq&(1<<uint(e.Kind)) == 0 {
			return
		}
		i := min(int((e.Cycle-lo)/width), n-1)
		b := &buckets[i]
		switch e.Kind {
		case trace.KWPQEnqueue:
			b.Enqueues++
		case trace.KWPQDrain:
			b.Drains++
		case trace.KWPQStall:
			b.StallCycles += e.Arg
			return
		}
		// Per-socket streams merge: occupancy is the emitting queue's
		// post-event occupancy with the socket tag stripped.
		occ := trace.WPQOcc(e.Arg)
		b.OccMax = max(b.OccMax, occ)
		sums[i] += occ
		samples[i]++
	}); err != nil {
		return nil, err
	}
	for i := range buckets {
		if samples[i] > 0 {
			buckets[i].OccAvg = sums[i] / samples[i]
		}
	}
	return &trace.WPQSeries{Buckets: buckets}, nil
}
