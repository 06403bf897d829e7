package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// StreamRingEvents is the spill-ring capacity attached when a run
// streams (RunConfig.StreamDir) without a caller-provided tracer: small
// enough that trace-side memory is dominated by the segment buffer, big
// enough that spill handoffs amortize.
const StreamRingEvents = 1 << 15

// CritPathRingEvents is the in-memory ring attached for a critpath run
// without a caller tracer or a stream dir: full event detail for the
// whole measured region, sized so the analyzer's Dropped check holds on
// the bench-scale runs the analysis targets (the analyzer refuses a
// lossy stream; stream to disk for bigger regions).
const CritPathRingEvents = 1 << 21

// TelemetryFile is the NDJSON telemetry file written inside StreamDir:
// one line per closed interval (see stream.Interval).
const TelemetryFile = "telemetry.ndjson"

// streamRun carries one run's streaming state between attach and
// reduce.
type streamRun struct {
	w    *stream.Writer
	tele *stream.Telemetry
	nd   *os.File
	dir  string
}

// attachStream starts the binlog writer with a live telemetry
// snapshotter and attaches it as the tracer's spill sink. Called after
// the measured-region Reset so setup events never reach the stream.
func attachStream(cfg RunConfig, tr *trace.Tracer) *streamRun {
	if err := os.MkdirAll(cfg.StreamDir, 0o755); err != nil {
		panic(fmt.Sprintf("bench: stream dir: %v", err))
	}
	nd, err := os.Create(filepath.Join(cfg.StreamDir, TelemetryFile))
	if err != nil {
		panic(fmt.Sprintf("bench: telemetry file: %v", err))
	}
	tele := stream.NewTelemetry(cfg.StreamInterval, nd)
	w, err := stream.NewWriter(cfg.StreamDir, 0, tele)
	if err != nil {
		nd.Close()
		panic(fmt.Sprintf("bench: stream writer: %v", err))
	}
	tr.SetSink(w)
	return &streamRun{w: w, tele: tele, nd: nd, dir: cfg.StreamDir}
}

// finish flushes the ring's tail into the stream and closes the binlog
// (final segment fsync + CLOSED sentinel). Must run after the last
// trace event of the measured region (including the occupancy
// retirement pass).
func (s *streamRun) finish(tr *trace.Tracer) {
	tr.Flush()
	s.w.SetDropped(tr.Dropped())
	if err := s.w.Close(); err != nil {
		panic(fmt.Sprintf("bench: trace stream: %v", err))
	}
	if err := s.nd.Close(); err != nil {
		panic(fmt.Sprintf("bench: telemetry file: %v", err))
	}
	tr.SetSink(nil)
}

// reduceTrace folds the measured region's events into the result: the
// latency summary, the WPQ series and occupancy gauges, the telemetry
// interval series when the run streamed, and the critical path when the
// config asks for it. Every analysis is a stream consumer fed from one
// source — the on-disk binlog when the run streamed (closed here first),
// the tracer's ring otherwise — so both pipelines reduce identically.
func reduceTrace(res *Result, tr *trace.Tracer, sw *streamRun, pm interface {
	OccupancyStats() (uint64, uint64)
}) {
	var src stream.Source
	if sw == nil {
		src = stream.Events(tr.Events())
	} else {
		sw.finish(tr)
		d, err := stream.Open(sw.dir)
		if err != nil {
			panic(fmt.Sprintf("bench: open stream: %v", err))
		}
		src = d
		if err := sw.tele.Err(); err != nil {
			panic(fmt.Sprintf("bench: telemetry: %v", err))
		}
		res.Intervals = &IntervalSeries{Intervals: sw.tele.Intervals()}
	}
	summ := stream.NewSummarizer()
	st, err := stream.Feed(src, summ)
	if err != nil {
		panic(fmt.Sprintf("bench: replay trace: %v", err))
	}
	res.Summary = summ.Summary(st.Events, tr.Dropped())
	if res.WPQ, err = stream.BucketWPQ(src, 16); err != nil {
		panic(fmt.Sprintf("bench: trace wpq: %v", err))
	}
	res.Counters.WPQOccMaxBytes, res.Counters.WPQOccAvgBytes = pm.OccupancyStats()
	if res.RunConfig.CritPath {
		res.CritPath = critAnalyze(src, tr.Dropped(), res.Cycles)
	}
}

// critAnalyze runs the causal critical-path analysis over the measured
// region's events. The conservation contract is enforced here, not
// just reported: the critical-path length must equal the run's measured
// makespan.
func critAnalyze(src stream.Source, dropped, cycles uint64) *critpath.Analysis {
	cp := critpath.New()
	if _, err := stream.Feed(src, cp); err != nil {
		panic(fmt.Sprintf("bench: critpath replay: %v", err))
	}
	an, err := cp.Analyze(dropped)
	if err != nil {
		panic(fmt.Sprintf("bench: critpath: %v", err))
	}
	if err := an.Check(); err != nil {
		panic(fmt.Sprintf("bench: critpath: %v", err))
	}
	if an.Makespan != cycles {
		panic(fmt.Sprintf("bench: critpath makespan %d != measured %d cycles", an.Makespan, cycles))
	}
	return an
}
