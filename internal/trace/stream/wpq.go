package stream

import "github.com/persistmem/slpmt/internal/trace"

// BucketWPQ folds a source's WPQ events into n equal time buckets
// spanning the stream's WPQ activity, in two passes — pass one finds
// the activity span in O(1) state, pass two fills the buckets in O(n)
// state — so the series never needs the events in memory. The last
// bucket ends past the final event (the width is ceil'd). Returns nil
// if the stream holds no WPQ events.
func BucketWPQ(src Source, n int) (*trace.WPQSeries, error) {
	if n <= 0 {
		n = 16
	}
	span := &wpqSpan{}
	if _, err := Feed(src, span); err != nil {
		return nil, err
	}
	if !span.seen {
		return nil, nil
	}
	fold := newWPQFold(span.lo, span.hi, n)
	if _, err := Feed(src, fold); err != nil {
		return nil, err
	}
	return fold.series(), nil
}

// wpqMask is the WPQ activity kinds both passes consume.
func wpqMask() uint64 {
	return trace.Mask(trace.KWPQEnqueue, trace.KWPQDrain, trace.KWPQStall)
}

// wpqSpan is pass one: the min/max cycle of WPQ activity.
type wpqSpan struct {
	lo, hi uint64
	seen   bool
}

func (s *wpqSpan) Kinds() uint64 { return wpqMask() }

func (s *wpqSpan) Consume(e trace.Event) {
	switch e.Kind {
	case trace.KWPQEnqueue, trace.KWPQDrain, trace.KWPQStall:
		if !s.seen || e.Cycle < s.lo {
			s.lo = e.Cycle
		}
		if e.Cycle > s.hi {
			s.hi = e.Cycle
		}
		s.seen = true
	}
}

// wpqFold is pass two: the bucket fill, given the span.
type wpqFold struct {
	lo      uint64
	width   uint64
	buckets []trace.WPQBucket
	sums    []uint64
	samples []uint64
}

func newWPQFold(lo, hi uint64, n int) *wpqFold {
	width := (hi - lo + uint64(n)) / uint64(n) // ceil so hi lands in the last bucket
	if width == 0 {
		width = 1
	}
	f := &wpqFold{
		lo: lo, width: width,
		buckets: make([]trace.WPQBucket, n),
		sums:    make([]uint64, n),
		samples: make([]uint64, n),
	}
	for i := range f.buckets {
		f.buckets[i].StartCycle = lo + uint64(i)*width
		f.buckets[i].EndCycle = lo + uint64(i+1)*width
	}
	return f
}

func (f *wpqFold) Kinds() uint64 { return wpqMask() }

func (f *wpqFold) Consume(e trace.Event) {
	var i int
	switch e.Kind {
	case trace.KWPQEnqueue, trace.KWPQDrain, trace.KWPQStall:
		i = int((e.Cycle - f.lo) / f.width)
		if i >= len(f.buckets) {
			i = len(f.buckets) - 1
		}
	default:
		return
	}
	b := &f.buckets[i]
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
	if occ > b.OccMax {
		b.OccMax = occ
	}
	f.sums[i] += occ
	f.samples[i]++
}

func (f *wpqFold) series() *trace.WPQSeries {
	for i := range f.buckets {
		if f.samples[i] > 0 {
			f.buckets[i].OccAvg = f.sums[i] / f.samples[i]
		}
	}
	return &trace.WPQSeries{Buckets: f.buckets}
}
