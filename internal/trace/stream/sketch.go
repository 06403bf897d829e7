package stream

import "math/bits"

// QSketch is a bounded-memory quantile sketch over uint64 samples:
// HDR-style log-linear buckets with qsketchSubBits bits of sub-bucket
// resolution. Values below 2^qsketchSubBits are counted exactly; above,
// a value lands in the bucket keyed by its exponent and the top
// qsketchSubBits mantissa bits, so a bucket spanning [lo, lo+w) has
// width w <= lo >> qsketchSubBits. Quantile answers the bucket's upper
// bound, which bounds the relative error: for any quantile q,
//
//	exact <= Quantile(q) <= exact * (1 + 2^-qsketchSubBits)
//
// i.e. at most ~3.1% above the exact nearest-rank value, with ~16 KiB
// of state regardless of sample count. The streaming Summarizer uses
// exact nearest-rank until its sample bound and only then degrades to
// this sketch, so committed-golden-sized runs stay bit-exact.
type QSketch struct {
	counts [64 << qsketchSubBits]uint64
	n      uint64
	max    uint64
}

const qsketchSubBits = 5

// Add counts one sample.
func (q *QSketch) Add(v uint64) {
	q.n++
	if v > q.max {
		q.max = v
	}
	q.counts[qsketchBucket(v)]++
}

// N returns the number of samples added.
func (q *QSketch) N() uint64 { return q.n }

// Reset clears the sketch.
func (q *QSketch) Reset() { *q = QSketch{} }

// qsketchBucket maps a value to its bucket index.
func qsketchBucket(v uint64) int {
	if v < 1<<qsketchSubBits {
		return int(v) // exact region: exponent < qsketchSubBits
	}
	e := bits.Len64(v) - 1 // >= qsketchSubBits
	sub := (v >> uint(e-qsketchSubBits)) & (1<<qsketchSubBits - 1)
	return e<<qsketchSubBits | int(sub)
}

// qsketchUpper returns the largest value mapping to bucket b.
func qsketchUpper(b int) uint64 {
	if b < 1<<qsketchSubBits {
		return uint64(b)
	}
	e := uint(b >> qsketchSubBits)
	sub := uint64(b & (1<<qsketchSubBits - 1))
	lo := uint64(1)<<e | sub<<(e-qsketchSubBits)
	return lo + (uint64(1) << (e - qsketchSubBits)) - 1
}

// Quantile returns the value at percentile p (0 < p <= 100) by
// nearest-rank over the buckets — the same rank convention as
// trace.Percentiles — answering each bucket's upper bound (clamped to
// the observed maximum). Returns 0 on an empty sketch.
func (q *QSketch) Quantile(p int) uint64 {
	if q.n == 0 {
		return 0
	}
	rank := (uint64(p)*q.n + 99) / 100 // nearest-rank, 1-based
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range q.counts {
		seen += c
		if seen >= rank {
			if u := qsketchUpper(b); u < q.max {
				return u
			}
			return q.max
		}
	}
	return q.max
}
