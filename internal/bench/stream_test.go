package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// sanitizeReport replays src through the streaming persist-order
// sanitizer, with the violation order normalized for comparison.
func sanitizeReport(t *testing.T, src stream.Source, dropped uint64) *trace.Report {
	t.Helper()
	zs := trace.NewSanitizer()
	if _, err := stream.Feed(src, zs); err != nil {
		t.Fatal(err)
	}
	return sortViolations(zs.Report(dropped))
}

// sortViolations orders rep's violations by event, then detail: the
// sanitizer may report one event's violations in any order.
func sortViolations(rep *trace.Report) *trace.Report {
	sort.Slice(rep.Violations, func(i, j int) bool {
		vi, vj := rep.Violations[i], rep.Violations[j]
		if vi.Index != vj.Index {
			return vi.Index < vj.Index
		}
		return vi.Detail < vj.Detail
	})
	return rep
}

// TestSanitizerRunsLive: a run whose stream carries every kind the
// sanitizer reads is sanitized as it runs, and its report equals the
// one a replay of its binlog gives; a Metrics-only ring carries none.
// The 2-core W=16 cell with 32-byte values is the one whose first WPQ
// entry a sanitizer that dropped it from the FIFO reported as a
// wpq-fifo violation.
func TestSanitizerRunsLive(t *testing.T) {
	cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 120, ValueSize: 32, Cores: 2, CommitWindow: 16,
		CritPath: true, StreamDir: t.TempDir()}
	r := Run(cfg)
	if r.Sanitizer == nil {
		t.Fatal("a full-detail run carried no sanitizer report")
	}
	d, err := stream.Open(cfg.StreamDir)
	if err != nil {
		t.Fatal(err)
	}
	want := sanitizeReport(t, d, 0)
	if got := sortViolations(r.Sanitizer); !reflect.DeepEqual(got, want) {
		t.Fatalf("live sanitizer report %+v, binlog replay %+v", got, want)
	}
	if want.Transactions != cfg.N || !want.Clean() {
		t.Fatalf("sanitizer replayed %d transactions with %d violations %v, want %d and none",
			want.Transactions, want.Total, want.Violations, cfg.N)
	}
	m := Run(RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 40, Metrics: true})
	if m.Sanitizer != nil {
		t.Errorf("a Metrics-only ring was sanitized: %+v", m.Sanitizer)
	}
}

// A streamed run reduces exactly like a ring run: against the same
// config traced into a full-detail ring with zero drops, it has the
// same cycles and counters, its Summary equals the ring's, and the WPQ
// series, sanitizer report and Perfetto export of its binlog equal the
// ring's. Covers single- and multi-core.
func TestStreamedRunMatchesBuffered(t *testing.T) {
	for _, cores := range []int{1, 2} {
		base := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 120, ValueSize: 64, Cores: cores}
		tr := trace.New(trace.DefaultCapacity)
		ringCfg := base
		ringCfg.Trace = tr
		ring := Run(ringCfg)
		if tr.Dropped() != 0 {
			t.Fatalf("cores=%d: ring dropped %d events; enlarge it", cores, tr.Dropped())
		}

		streamed := base
		streamed.StreamDir = t.TempDir()
		streamed.StreamInterval = 1 << 12
		got := Run(streamed)

		if got.Cycles != ring.Cycles {
			t.Fatalf("cores=%d: streaming changed timing: %d != %d cycles", cores, got.Cycles, ring.Cycles)
		}
		if got.Counters != ring.Counters {
			t.Fatalf("cores=%d: streaming changed counters:\nstreamed:\n%s\nring:\n%s",
				cores, got.Counters.String(), ring.Counters.String())
		}
		if got.Summary != ring.Summary {
			t.Fatalf("cores=%d: streamed summary %+v, ring %+v", cores, got.Summary, ring.Summary)
		}
		if got.Summary.Dropped != 0 || got.Summary.Commits == 0 {
			t.Fatalf("cores=%d: streamed summary %+v: want commits and no drops", cores, got.Summary)
		}

		d, err := stream.Open(streamed.StreamDir)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Closed() {
			t.Fatalf("cores=%d: stream not closed", cores)
		}
		wpq, err := stream.BucketWPQ(d, 16)
		if err != nil {
			t.Fatal(err)
		}
		if ringWPQ, err := stream.BucketWPQ(stream.Events(tr.Events()), 16); err != nil || wpq == nil || !reflect.DeepEqual(wpq, ringWPQ) {
			t.Fatalf("cores=%d: binlog WPQ series %v differs from the ring's (%v)", cores, wpq, err)
		}
		want := sanitizeReport(t, stream.Events(tr.Events()), tr.Dropped())
		if rep := sanitizeReport(t, d, 0); !reflect.DeepEqual(rep, want) {
			t.Fatalf("cores=%d: streamed sanitize report %+v, ring %+v", cores, rep, want)
		}
		if want.Transactions == 0 {
			t.Fatalf("cores=%d: sanitizer replayed no transactions", cores)
		}

		// Perfetto: the binlog's streamed export (what slpmtbench -trace
		// writes) is byte for byte the ring's, sorted in memory.
		sorted := tr.Events()
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })
		inMemory := func(fn func(trace.Event)) error {
			_, err := stream.Events(sorted).Iter(fn)
			return err
		}
		var fromLog, fromRing bytes.Buffer
		if err := trace.WritePerfetto(&fromLog, d.ByCycle, trace.PerfettoOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := trace.WritePerfetto(&fromRing, inMemory, trace.PerfettoOptions{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromLog.Bytes(), fromRing.Bytes()) {
			t.Fatalf("cores=%d: Perfetto export of the binlog (%d B) differs from the ring's (%d B)",
				cores, fromLog.Len(), fromRing.Len())
		}

		// Telemetry: interval series present, in order, with the NDJSON
		// file mirroring it line for line.
		if got.Intervals == nil || len(got.Intervals.Intervals) == 0 {
			t.Fatalf("cores=%d: streamed run carried no telemetry intervals", cores)
		}
		var commits uint64
		for i, iv := range got.Intervals.Intervals {
			if i > 0 && iv.Index <= got.Intervals.Intervals[i-1].Index {
				t.Fatalf("cores=%d: telemetry intervals out of order", cores)
			}
			commits += iv.Commits
		}
		if commits != uint64(got.Summary.Commits) {
			t.Fatalf("cores=%d: telemetry counted %d commits, summary %d", cores, commits, got.Summary.Commits)
		}
		nd, err := os.ReadFile(filepath.Join(streamed.StreamDir, TelemetryFile))
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, b := range nd {
			if b == '\n' {
				lines++
			}
		}
		if lines != len(got.Intervals.Intervals) {
			t.Fatalf("cores=%d: %d NDJSON lines for %d intervals", cores, lines, len(got.Intervals.Intervals))
		}
	}
}

// TestStreamSoakMillionTransactions is the bounded-memory soak behind
// EXPERIMENTS.md ("Streaming"): one million update transactions over a
// fixed 1000-key hashtable stream through the SLPSEG01 binlog with
// zero dropped events, every commit accounted for by the streamed
// summarizer, and host heap staying flat (O(spill ring + segment
// buffer), not O(events)). It takes minutes of host time and tens of
// millions of events, so it only runs with SLPMT_STREAM_SOAK=1.
func TestStreamSoakMillionTransactions(t *testing.T) {
	if os.Getenv("SLPMT_STREAM_SOAK") == "" {
		t.Skip("set SLPMT_STREAM_SOAK=1 to run the 1M-transaction streaming soak (~minutes)")
	}
	const keys = 1000
	const txns = 1_000_000

	w := workloads.MustNew("hashtable")
	m, ok := w.(workloads.Mutable)
	if !ok {
		t.Fatal("hashtable is not Mutable")
	}
	tr := trace.New(StreamRingEvents)
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT", ComputeCyclesPerOp: w.ComputeCost(), Trace: tr})
	if err := w.Setup(sys); err != nil {
		t.Fatal(err)
	}
	load := ycsb.Load{N: keys, ValueSize: 64}
	ks := load.Keys()
	for _, k := range ks {
		if err := w.Insert(sys, k, load.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	sys.FinishEpoch()
	tr.Reset()

	dir := t.TempDir()
	nd, err := os.Create(filepath.Join(dir, TelemetryFile))
	if err != nil {
		t.Fatal(err)
	}
	tele := stream.NewTelemetry(1<<22, nd)
	wtr, err := stream.NewWriter(dir, 0, tele)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetSink(wtr)

	var ms runtime.MemStats
	var peakHeap uint64
	for i := 0; i < txns; i++ {
		k := ks[i%keys]
		if err := m.UpdateValue(sys, k, load.Value(ks[(i+7)%keys])); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if i%100_000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
		}
	}
	sys.DrainLazy()
	tr.Flush()
	wtr.SetDropped(tr.Dropped())
	if err := wtr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	tr.SetSink(nil)

	if tr.Dropped() != 0 {
		t.Fatalf("streamed soak dropped %d events", tr.Dropped())
	}
	d, err := stream.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Closed() {
		t.Fatal("stream not closed")
	}
	summ := stream.NewSummarizer()
	st, err := stream.Feed(d, summ)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn != nil {
		t.Fatalf("stream torn: %v", st.Torn)
	}
	sum := summ.Summary(st.Events, tr.Dropped())
	if sum.Commits != txns {
		t.Fatalf("streamed summarizer counted %d commits, want %d", sum.Commits, txns)
	}
	var binlog int64
	for _, name := range d.Segments() {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		binlog += fi.Size()
	}
	t.Logf("soak: %d txns, %d events over %d segments (%d MB binlog), peak host heap %d MB, %d telemetry intervals",
		txns, st.Events, st.Segments, binlog>>20, peakHeap>>20, len(tele.Intervals()))

	// O(segment) memory: the host heap must be nowhere near the
	// in-memory cost of the event stream (~40 bytes/event).
	if inMemory := uint64(st.Events) * 40; peakHeap > inMemory/4 {
		t.Errorf("peak heap %d MB is not O(segment) against an %d MB in-memory stream", peakHeap>>20, inMemory>>20)
	}
}

// The spill path must also compose with a profiled run: KCharge events
// stream through, and the per-interval attribution vectors telescope to
// the end-of-run breakdown.
func TestStreamedProfileTelescopes(t *testing.T) {
	cfg := RunConfig{
		Scheme: "SLPMT", Workload: "hashtable", N: 100, ValueSize: 64,
		Profile: true, StreamDir: t.TempDir(), StreamInterval: 1 << 12,
	}
	r := Run(cfg)
	if r.Causes == nil || r.Intervals == nil {
		t.Fatal("profiled streamed run missing breakdown or intervals")
	}
	want := r.Causes.ByName()
	got := map[string]uint64{}
	for _, iv := range r.Intervals.Intervals {
		for k, v := range iv.CyclesByCause {
			got[k] += v
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interval attribution does not telescope:\ngot  %v\nwant %v", got, want)
	}
}
