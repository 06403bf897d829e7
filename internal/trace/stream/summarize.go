package stream

import "github.com/persistmem/slpmt/internal/trace"

// MaxExactSamples is the per-histogram sample bound up to which the
// streaming Summarizer keeps exact latency samples (nearest-rank
// percentiles through trace.Percentiles). Past the bound it degrades to
// the QSketch with its documented <= 2^-5 relative error — bounded
// memory at million-transaction scale.
const MaxExactSamples = 1 << 18

// Summarizer reduces a trace to its latency percentiles: it pairs
// begin/commit and lazy-drain start/end events per core as they stream
// by (an abort drops the open begin). Commit latency is the full
// begin-to-commit-complete span; lazy-drain latency is the posted drain
// section's span. Summary must be given the stream's total event count
// (Stats.Events), since the consumer itself only sees its masked kinds.
type Summarizer struct {
	txStart   map[uint8]uint64
	lazyStart map[uint8]uint64

	commits latAcc
	lazies  latAcc
}

// latAcc is one latency histogram: exact samples until MaxExactSamples,
// a sketch afterwards.
type latAcc struct {
	exact  []uint64
	sketch *QSketch
}

func (a *latAcc) add(v uint64) {
	if a.sketch != nil {
		a.sketch.Add(v)
		return
	}
	if len(a.exact) >= MaxExactSamples {
		a.sketch = &QSketch{}
		for _, x := range a.exact {
			a.sketch.Add(x)
		}
		a.exact = nil
		a.sketch.Add(v)
		return
	}
	a.exact = append(a.exact, v)
}

func (a *latAcc) count() int {
	if a.sketch != nil {
		return int(a.sketch.N())
	}
	return len(a.exact)
}

func (a *latAcc) percentiles() (p50, p95, p99 uint64) {
	if a.sketch != nil {
		return a.sketch.Quantile(50), a.sketch.Quantile(95), a.sketch.Quantile(99)
	}
	return trace.Percentiles(a.exact)
}

// NewSummarizer returns an empty streaming summarizer.
func NewSummarizer() *Summarizer {
	return &Summarizer{txStart: map[uint8]uint64{}, lazyStart: map[uint8]uint64{}}
}

// Kinds registers the lifecycle kinds the summarizer consumes.
func (s *Summarizer) Kinds() uint64 {
	return trace.Mask(trace.KTxBegin, trace.KTxCommit, trace.KTxAbort,
		trace.KLazyDrainStart, trace.KLazyDrainEnd)
}

// Consume folds one event into the histograms.
func (s *Summarizer) Consume(e trace.Event) {
	switch e.Kind {
	case trace.KTxBegin:
		s.txStart[e.Core] = e.Cycle
	case trace.KTxCommit:
		if c, ok := s.txStart[e.Core]; ok {
			s.commits.add(e.Cycle - c)
			delete(s.txStart, e.Core)
		}
	case trace.KTxAbort:
		delete(s.txStart, e.Core)
	case trace.KLazyDrainStart:
		s.lazyStart[e.Core] = e.Cycle
	case trace.KLazyDrainEnd:
		if c, ok := s.lazyStart[e.Core]; ok {
			s.lazies.add(e.Cycle - c)
			delete(s.lazyStart, e.Core)
		}
	}
}

// Sketched reports whether either histogram overflowed into sketch mode
// (percentiles then carry the sketch's error bound instead of being
// exact).
func (s *Summarizer) Sketched() bool {
	return s.commits.sketch != nil || s.lazies.sketch != nil
}

// Summary renders the accumulated histograms. events is the stream
// total (Stats.Events).
func (s *Summarizer) Summary(events int) trace.Summary {
	out := trace.Summary{Events: events}
	out.Commits = s.commits.count()
	out.CommitP50, out.CommitP95, out.CommitP99 = s.commits.percentiles()
	out.LazyDrains = s.lazies.count()
	out.LazyP50, out.LazyP95, out.LazyP99 = s.lazies.percentiles()
	return out
}
