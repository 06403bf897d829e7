// Package report is the machine-readable benchmark schema and its
// consumers: BENCH_<experiment>.json documents (written by slpmtbench
// -json), the perf-regression gate against committed baselines, and
// the self-contained HTML run-report renderer (cmd/slpmtreport). The
// gate is exact on every value of every result; an intended change is
// accepted by regenerating the baselines (make baseline) and naming the
// cause of each moved cell in CHANGES.md.
//
// The JSON schema is an external contract — CI baselines and any
// scripts the user keeps around parse it — so fields are only ever
// added, never renamed or removed.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// Result is the machine-readable form of one bench.Run outcome.
type Result struct {
	Scheme           string `json:"scheme"`
	Workload         string `json:"workload"`
	N                int    `json:"n"`
	ValueSize        int    `json:"value_size"`
	PMWriteNanos     uint64 `json:"pm_write_nanos,omitempty"`
	Banks            int    `json:"banks,omitempty"`
	WPQBytes         int    `json:"wpq_bytes,omitempty"`
	Seed             uint64 `json:"seed,omitempty"`
	Cores            int    `json:"cores,omitempty"`
	CommitWindow     int    `json:"commit_window,omitempty"`
	Sockets          int    `json:"sockets,omitempty"`
	RemoteNanos      uint64 `json:"remote_nanos,omitempty"`
	Mix              string `json:"mix,omitempty"` // bench.RunConfig.Mix's name; empty for ycsb-load
	Cycles           uint64 `json:"cycles"`
	PMWriteBytesData uint64 `json:"pm_write_bytes_data"`
	PMWriteBytesLog  uint64 `json:"pm_write_bytes_log"`
	PMWriteBytes     uint64 `json:"pm_write_bytes"`
	TxCommits        uint64 `json:"tx_commits"`
	VerifyOK         bool   `json:"verify_ok"`

	// Interval metrics, present when the run carried a tracer (the
	// scaling experiment always does; see bench.RunConfig.Metrics).
	CommitLatencyP50 uint64 `json:"commit_latency_p50,omitempty"`
	CommitLatencyP95 uint64 `json:"commit_latency_p95,omitempty"`
	CommitLatencyP99 uint64 `json:"commit_latency_p99,omitempty"`
	LazyDrainP50     uint64 `json:"lazy_drain_p50,omitempty"`
	LazyDrainP95     uint64 `json:"lazy_drain_p95,omitempty"`
	LazyDrainP99     uint64 `json:"lazy_drain_p99,omitempty"`
	WPQOccMaxBytes   uint64 `json:"wpq_occ_max_bytes,omitempty"`
	WPQOccAvgBytes   uint64 `json:"wpq_occ_avg_bytes,omitempty"`

	// DroppedEvents is the number of trace events the tracer's ring
	// discarded (zero on untraced runs and on streamed runs, whose spill
	// sink never drops). Nonzero means every trace-derived metric above
	// is a lower bound, so consumers should flag it.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`

	// Intervals is the live-telemetry interval series, present when the
	// run streamed its trace (bench.RunConfig.StreamDir): one entry per
	// closed snapshot window, mirroring the run's telemetry.ndjson.
	Intervals []stream.Interval `json:"intervals,omitempty"`

	// CyclesByCause is the cycle-attribution breakdown (cause name →
	// cycles, merged across cores), present when the run carried a
	// profile (bench.RunConfig.Profile). Maps marshal in sorted key
	// order, so the document stays byte-deterministic.
	CyclesByCause map[string]uint64 `json:"cycles_by_cause,omitempty"`

	// WPQSocketOccMax is the per-socket maximum WPQ occupancy in bytes
	// (socket number → bytes), present on multi-socket runs. Like
	// CyclesByCause, map marshalling keeps the document deterministic.
	WPQSocketOccMax map[string]uint64 `json:"wpq_socket_occ_max,omitempty"`

	// Critical-path analysis fields, present when the run carried the
	// causal analyzer (bench.RunConfig.CritPath). CriticalPathByCause is
	// the makespan decomposed along the critical path (cause name →
	// cycles; the values sum to CritPathLen == cycles, the checked
	// conservation contract). CritPathSlackTop ranks the DAG nodes with
	// the most scheduling headroom, CritPathSteps is the walked path
	// (oldest first, for the per-core blame timeline), and HotLines is
	// the per-address contention ranking.
	CritPathLen         uint64            `json:"critpath_len,omitempty"`
	CritPathHops        int               `json:"critpath_hops,omitempty"`
	CriticalPathByCause map[string]uint64 `json:"critical_path_by_cause,omitempty"`
	CritPathSlackTop    []CritSlack       `json:"critpath_slack_top,omitempty"`
	CritPathSteps       []CritStep        `json:"critpath_steps,omitempty"`
	HotLines            []HotLine         `json:"hot_lines,omitempty"`
}

// CritSlack is one slack-ranking entry: a DAG node (a coalesced run of
// same-cause charges on one core) and how many cycles later it could
// finish without growing the makespan.
type CritSlack struct {
	Core  int    `json:"core"`
	Cause string `json:"cause"`
	Start uint64 `json:"start_cycle"`
	End   uint64 `json:"end_cycle"`
	Slack uint64 `json:"slack_cycles"`
}

// CritStep is one critical-path segment, oldest first. Edge is the
// waits-for relation the path followed into the segment ("program" =
// same-core order; "wpq.drain"/"coherence"/"lazy.conflict" = a
// cross-core hop).
type CritStep struct {
	Core  int    `json:"core"`
	Cause string `json:"cause"`
	Start uint64 `json:"start_cycle"`
	End   uint64 `json:"end_cycle"`
	Edge  string `json:"edge"`
}

// HotLine is one contended cache line's observatory record (see
// critpath.HotLine for field semantics).
type HotLine struct {
	Addr         string `json:"addr"` // hex line address
	Score        uint64 `json:"score"`
	Transfers    uint64 `json:"transfers,omitempty"`
	PingPong     uint64 `json:"ping_pong,omitempty"`
	Stalls       uint64 `json:"stalls,omitempty"`
	SigHits      uint64 `json:"sig_hits,omitempty"`
	Remote       uint64 `json:"remote,omitempty"`
	StallCycles  uint64 `json:"stall_cycles,omitempty"`
	RemoteCycles uint64 `json:"remote_cycles,omitempty"`
	Residency    uint64 `json:"wpq_residency_cycles,omitempty"`
}

// Key identifies the run configuration: two results with the same key
// measure the same point of the parameter grid and are comparable
// across baseline and candidate documents. A mix's name is appended
// only when set, so a load run's key is the one it always had.
func (r Result) Key() string {
	k := fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		r.Scheme, r.Workload, r.N, r.ValueSize, r.PMWriteNanos, r.Banks, r.WPQBytes, r.Cores, r.Seed, r.CommitWindow, r.Sockets, r.RemoteNanos)
	if r.Mix != "" {
		k += "|" + r.Mix
	}
	return k
}

// Report is the top-level BENCH_<experiment>.json document.
type Report struct {
	Experiment  string   `json:"experiment"`
	Parallel    int      `json:"parallel"`
	WallMillis  float64  `json:"wall_ms"`
	Runs        int      `json:"runs"`
	TotalOps    uint64   `json:"total_ops"`
	AllocsPerOp float64  `json:"allocs_per_op"`
	BytesPerOp  float64  `json:"bytes_per_op"`
	Results     []Result `json:"results"`
}

// FromResult converts one harness outcome to its wire form.
func FromResult(r bench.Result) Result {
	out := Result{
		Scheme:           r.Scheme,
		Workload:         r.Workload,
		N:                r.N,
		ValueSize:        r.ValueSize,
		PMWriteNanos:     r.PMWriteNanos,
		Banks:            r.Banks,
		WPQBytes:         r.WPQBytes,
		Seed:             r.Seed,
		Cores:            r.Cores,
		CommitWindow:     r.RunConfig.CommitWindow,
		Sockets:          r.RunConfig.Sockets,
		RemoteNanos:      r.RunConfig.RemoteNanos,
		Mix:              r.Mix.Name,
		Cycles:           r.Cycles,
		PMWriteBytesData: r.Counters.PMWriteBytesData,
		PMWriteBytesLog:  r.Counters.PMWriteBytesLog,
		PMWriteBytes:     r.PMWriteBytes(),
		TxCommits:        r.Counters.TxCommits,
		VerifyOK:         r.VerifyErr == nil,
		CommitLatencyP50: r.Summary.CommitP50,
		CommitLatencyP95: r.Summary.CommitP95,
		CommitLatencyP99: r.Summary.CommitP99,
		LazyDrainP50:     r.Summary.LazyP50,
		LazyDrainP95:     r.Summary.LazyP95,
		LazyDrainP99:     r.Summary.LazyP99,
		WPQOccMaxBytes:   r.Counters.WPQOccMaxBytes,
		WPQOccAvgBytes:   r.Counters.WPQOccAvgBytes,
		DroppedEvents:    r.Summary.Dropped,
	}
	if r.Intervals != nil {
		out.Intervals = r.Intervals.Intervals
	}
	if r.Causes != nil {
		out.CyclesByCause = r.Causes.ByName()
	}
	if r.PerSocket != nil {
		out.WPQSocketOccMax = make(map[string]uint64, len(r.PerSocket.Stats))
		for _, s := range r.PerSocket.Stats {
			out.WPQSocketOccMax[fmt.Sprint(s.Socket)] = s.OccMaxBytes
		}
	}
	if an := r.CritPath; an != nil {
		out.CritPathLen = an.PathLen
		out.CritPathHops = an.Hops
		out.CriticalPathByCause = an.ByCause()
		for _, s := range an.SlackTop {
			out.CritPathSlackTop = append(out.CritPathSlackTop, CritSlack{
				Core: s.Node.Core, Cause: s.Node.Cause.String(),
				Start: s.Node.Start, End: s.Node.End, Slack: s.Slack,
			})
		}
		out.CritPathSteps = critSteps(an)
		for i, h := range an.HotLines {
			if i >= maxReportHotLines {
				break
			}
			out.HotLines = append(out.HotLines, HotLine{
				Addr: fmt.Sprintf("%#x", h.Addr), Score: h.Score(),
				Transfers: h.Transfers, PingPong: h.PingPong, Stalls: h.Stalls,
				SigHits: h.SigHits, Remote: h.Remote,
				StallCycles: h.StallCycles, RemoteCycles: h.RemoteCycles,
				Residency: h.Residency,
			})
		}
	}
	return out
}

// maxReportSteps caps the embedded path timeline (spans beyond it are
// dropped from the document, not from the analysis); maxReportHotLines
// caps the embedded contention ranking.
const (
	maxReportSteps    = 512
	maxReportHotLines = 16
)

// critSteps compresses the walked critical path into per-core blame
// spans: consecutive same-core steps merge into one span labeled with
// the span's dominant cause (by cycles) and the hop edge that moved
// the path onto the core. This is the HTML timeline's data: one bar
// per span in core lanes.
func critSteps(an *critpath.Analysis) []CritStep {
	var out []CritStep
	var acc profile.Vector
	var core int
	var start, end uint64
	var edge critpath.EdgeKind
	open := false
	flush := func() {
		if !open {
			return
		}
		best, bestN := profile.CauseNone, uint64(0)
		for c, n := range acc {
			if n > bestN {
				best, bestN = profile.Cause(c), n
			}
		}
		out = append(out, CritStep{
			Core: core, Cause: best.String(), Start: start, End: end, Edge: edge.String(),
		})
		acc = profile.Vector{}
		open = false
	}
	for _, s := range an.Steps {
		if !open || s.Core != core {
			flush()
			core, start, edge, open = s.Core, s.Start, s.Edge, true
		}
		end = s.End
		acc[s.Cause] += s.End - s.Start
	}
	flush()
	if len(out) > maxReportSteps {
		out = out[:maxReportSteps]
	}
	return out
}

// FromResults builds the document for one experiment. The collector
// sees results in completion order, which varies with the worker
// schedule; results are sorted on the full config for stable files.
func FromResults(name string, parallel int, wall time.Duration, mallocs, bytes uint64, results []bench.Result) Report {
	rep := Report{
		Experiment: name,
		Parallel:   parallel,
		WallMillis: float64(wall.Microseconds()) / 1000,
		Runs:       len(results),
		Results:    make([]Result, 0, len(results)),
	}
	for _, r := range results {
		rep.TotalOps += uint64(r.N)
		rep.Results = append(rep.Results, FromResult(r))
	}
	sort.Slice(rep.Results, func(i, j int) bool {
		a, b := rep.Results[i], rep.Results[j]
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.N != b.N {
			return a.N < b.N
		}
		if a.ValueSize != b.ValueSize {
			return a.ValueSize < b.ValueSize
		}
		if a.PMWriteNanos != b.PMWriteNanos {
			return a.PMWriteNanos < b.PMWriteNanos
		}
		if a.Banks != b.Banks {
			return a.Banks < b.Banks
		}
		if a.WPQBytes != b.WPQBytes {
			return a.WPQBytes < b.WPQBytes
		}
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		if a.CommitWindow != b.CommitWindow {
			return a.CommitWindow < b.CommitWindow
		}
		if a.Sockets != b.Sockets {
			return a.Sockets < b.Sockets
		}
		if a.RemoteNanos != b.RemoteNanos {
			return a.RemoteNanos < b.RemoteNanos
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Mix < b.Mix
	})
	if rep.TotalOps > 0 {
		rep.AllocsPerOp = float64(mallocs) / float64(rep.TotalOps)
		rep.BytesPerOp = float64(bytes) / float64(rep.TotalOps)
	}
	return rep
}

// Filename is the conventional document name for an experiment.
func Filename(experiment string) string { return "BENCH_" + experiment + ".json" }

// Write marshals the document to path (2-space indent, trailing
// newline), matching the format of every committed baseline.
func (r Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads one BENCH_<experiment>.json document. A field the schema
// does not know is an error, so a field dropped from Result cannot
// vanish from a baseline unnoticed.
func Load(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
