package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// StreamRingEvents is the capacity of the one buffer a Metrics,
// CritPath or StreamDir run records into: 2^15 events of 32 B, 1 MiB.
// Each full buffer spills to the run's consumers, so a run of any
// length holds two such buffers; the size only sets how often spills
// hand over.
const StreamRingEvents = 1 << 15

// TelemetryFile is the NDJSON telemetry file written inside StreamDir:
// one line per closed interval (see stream.Interval).
const TelemetryFile = "telemetry.ndjson"

// pipeline is one run's online analyses (cs): the latency summarizer,
// the critical-path analyzer for a CritPath run, and the persist-order
// sanitizer whenever the stream carries every kind the sanitizer reads
// (trace.SanitizeMask). A live run feeds them its buffer's spills
// through w, which with a StreamDir also runs the telemetry and writes
// the binlog; a replay feeds them a saved stream, so both reduce
// identically.
type pipeline struct {
	summ *stream.Summarizer
	cp   *critpath.Analyzer
	san  *trace.Sanitizer
	cs   []stream.Consumer
	w    *stream.Writer
	tele *stream.Telemetry // nil without a StreamDir
	nd   *os.File
}

// newPipeline builds the analyses of a stream that carries the kinds
// mask.
func newPipeline(critPath bool, kinds uint64) *pipeline {
	p := &pipeline{summ: stream.NewSummarizer()}
	p.cs = []stream.Consumer{p.summ}
	if critPath {
		p.cp = critpath.New()
		p.cs = append(p.cs, p.cp)
	}
	if m := trace.SanitizeMask(); kinds&m == m {
		p.san = trace.NewSanitizer()
		p.cs = append(p.cs, p.san)
	}
	return p
}

// reduce folds the analyses into r: the latency summary over events
// stream events, the sanitizer's report, and the critical path with
// its internal accounting checked. The critical path refuses a torn
// stream: its causal replay needs every event.
func (p *pipeline) reduce(r *Result, events int, torn *stream.TornError) error {
	r.Summary = p.summ.Summary(events)
	if p.san != nil {
		r.Sanitizer = p.san.Report()
	}
	if p.cp == nil {
		return nil
	}
	if torn != nil {
		return fmt.Errorf("critpath: %w (the causal replay needs a complete stream)", torn)
	}
	an, err := p.cp.Analyze()
	if err == nil {
		err = an.Check()
	}
	if err != nil {
		return fmt.Errorf("critpath: %w", err)
	}
	r.CritPath = an
	return nil
}

// attachStream starts the run's trace at the measured-region boundary:
// it gives the tracer the region's mask — full detail unless only
// Metrics asks, since the critical path needs charges, stores,
// coherence and signature hits — and attaches the run's pipeline as
// its spill sink, so the consumers see exactly the measured region.
func attachStream(cfg RunConfig, tr *trace.Tracer) *pipeline {
	mask := trace.AllKinds
	if cfg.Metrics && !cfg.CritPath {
		mask = trace.MetricsMask()
	}
	tr.SetMask(mask)
	p := newPipeline(cfg.CritPath, mask)
	cs := p.cs
	if cfg.StreamDir != "" {
		if err := os.MkdirAll(cfg.StreamDir, 0o755); err != nil {
			panic(fmt.Sprintf("bench: stream dir: %v", err))
		}
		nd, err := os.Create(filepath.Join(cfg.StreamDir, TelemetryFile))
		if err != nil {
			panic(fmt.Sprintf("bench: telemetry file: %v", err))
		}
		p.nd, p.tele = nd, stream.NewTelemetry(cfg.StreamInterval, nd)
		cs = append(cs, p.tele)
	}
	var err error
	if p.w, err = stream.NewWriter(cfg.StreamDir, 0, cs...); err != nil {
		panic(fmt.Sprintf("bench: stream writer: %v", err))
	}
	tr.SetSink(p.w)
	return p
}

// reduceTrace finishes the live pipeline after the region's last trace
// event (the occupancy retirement pass included) and folds it into the
// result: it hands the buffer's tail to the consumers, closes the
// writer (with a binlog: final segment fsync + CLOSED sentinel) and
// detaches it, and silences the tracer, which records nothing past the
// region (verification's loads included).
// The conservation contract is enforced here, not just reported: the
// critical-path length must equal the run's measured makespan.
func reduceTrace(res *Result, tr *trace.Tracer, p *pipeline, pm interface {
	OccupancyStats() (uint64, uint64)
}) {
	tr.Flush()
	if err := p.w.Close(); err != nil {
		panic(fmt.Sprintf("bench: trace stream: %v", err))
	}
	tr.SetSink(nil)
	tr.SetMask(0)
	if res.StreamDir != "" {
		if err := errors.Join(p.nd.Close(), p.tele.Err()); err != nil {
			panic(fmt.Sprintf("bench: telemetry: %v", err))
		}
		res.Intervals = &IntervalSeries{Intervals: p.tele.Intervals()}
	}
	if err := p.reduce(res, int(p.w.Events()), nil); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	if res.CritPath != nil && res.CritPath.Makespan != res.Cycles {
		panic(fmt.Sprintf("bench: critpath makespan %d != measured %d cycles", res.CritPath.Makespan, res.Cycles))
	}
	res.Counters.WPQOccMaxBytes, res.Counters.WPQOccAvgBytes = pm.OccupancyStats()
}

// ReduceEvents replays a measured region's events from src into r: the
// latency summary, the sanitizer's report when kinds (the mask the
// stream was recorded under) holds every kind the sanitizer reads, and,
// when r.RunConfig.CritPath is set, the causal critical path with its
// internal accounting checked. slpmtbench -replay reduces a saved
// binlog through it, with the pipeline a live run feeds, so a replay
// prints the live run's sections.
func (r *Result) ReduceEvents(src stream.Source, kinds uint64) error {
	p := newPipeline(r.RunConfig.CritPath, kinds)
	st, err := stream.Feed(src, p.cs...)
	if err != nil {
		return fmt.Errorf("replay trace: %w", err)
	}
	return p.reduce(r, st.Events, st.Torn)
}
