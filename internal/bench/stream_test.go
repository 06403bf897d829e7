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
func sanitizeReport(t *testing.T, src stream.Source) *trace.Report {
	t.Helper()
	zs := trace.NewSanitizer()
	if _, err := stream.Feed(src, zs); err != nil {
		t.Fatal(err)
	}
	return sortViolations(zs.Report())
}

// openBinlog opens the closed SLPSEG01 binlog a StreamDir run left in
// dir.
func openBinlog(t *testing.T, dir string) *stream.Dir {
	t.Helper()
	d, err := stream.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Closed() {
		t.Fatalf("stream in %s not closed", dir)
	}
	return d
}

// binlogEvents reads a StreamDir run's binlog into memory, in stream
// order: every event the run's live consumers saw.
func binlogEvents(t *testing.T, dir string) []trace.Event {
	t.Helper()
	var evs []trace.Event
	if _, err := openBinlog(t, dir).Iter(func(e trace.Event) { evs = append(evs, e) }); err != nil {
		t.Fatal(err)
	}
	return evs
}

// replayBinlog reduces r's binlog, recorded under the kinds mask, as
// slpmtbench -replay does: a fresh Result with r's config.
func replayBinlog(t *testing.T, r Result, kinds uint64) Result {
	t.Helper()
	rep := Result{RunConfig: r.RunConfig}
	if err := rep.ReduceEvents(openBinlog(t, r.StreamDir), kinds); err != nil {
		t.Fatal(err)
	}
	return rep
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
	want := sanitizeReport(t, openBinlog(t, cfg.StreamDir))
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

// A streamed run's live analyses are the ones a replay of its binlog
// gives: the same Summary and sanitizer report, and the binlog's WPQ
// series and Perfetto export, read from disk, equal those of its
// events held in memory. Streaming changes no cycles or counters.
// Covers single- and multi-core.
func TestStreamedRunMatchesBuffered(t *testing.T) {
	for _, cores := range []int{1, 2} {
		base := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 120, ValueSize: 64, Cores: cores}
		plain := Run(base)

		streamed := base
		streamed.StreamDir = t.TempDir()
		streamed.StreamInterval = 1 << 12
		got := Run(streamed)

		// A single-core run measures the occupancy gauges only when
		// traced (see TestTracedRunIsTimingInvariant).
		gc, pc := got.Counters, plain.Counters
		if cores == 1 {
			gc.WPQOccMaxBytes, gc.WPQOccAvgBytes = 0, 0
		}
		if got.Cycles != plain.Cycles || gc != pc {
			t.Fatalf("cores=%d: streaming changed the run: %d != %d cycles\nstreamed:\n%s\nplain:\n%s",
				cores, got.Cycles, plain.Cycles, gc.String(), pc.String())
		}
		replayed := replayBinlog(t, got, trace.AllKinds)
		if got.Summary != replayed.Summary || got.Summary.Commits == 0 {
			t.Fatalf("cores=%d: live summary %+v, binlog replay %+v: want them equal, with commits",
				cores, got.Summary, replayed.Summary)
		}
		if live, want := sortViolations(got.Sanitizer), sortViolations(replayed.Sanitizer); !reflect.DeepEqual(live, want) || want.Transactions == 0 {
			t.Fatalf("cores=%d: live sanitizer report %+v, binlog replay %+v: want them equal, with transactions",
				cores, live, want)
		}

		d := openBinlog(t, streamed.StreamDir)
		events := binlogEvents(t, streamed.StreamDir)
		wpq, err := stream.BucketWPQ(d)
		if err != nil {
			t.Fatal(err)
		}
		if inMemory, err := stream.BucketWPQ(stream.Events(events)); err != nil || wpq == nil || !reflect.DeepEqual(wpq, inMemory) {
			t.Fatalf("cores=%d: binlog WPQ series %v differs from its in-memory events' (%v)", cores, wpq, err)
		}

		// Perfetto: the binlog's streamed export (what slpmtbench -trace
		// writes) is byte for byte that of its events sorted in memory.
		sorted := events
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })
		inMemory := func(fn func(trace.Event)) error {
			_, err := stream.Events(sorted).Iter(fn)
			return err
		}
		var fromLog, fromMemory bytes.Buffer
		if err := trace.WritePerfetto(&fromLog, d.ByCycle); err != nil {
			t.Fatal(err)
		}
		if err := trace.WritePerfetto(&fromMemory, inMemory); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromLog.Bytes(), fromMemory.Bytes()) {
			t.Fatalf("cores=%d: Perfetto export of the binlog (%d B) differs from the in-memory one (%d B)",
				cores, fromLog.Len(), fromMemory.Len())
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
// fixed 1000-key hashtable stream through the SLPSEG01 binlog, every
// commit accounted for by the streamed summarizer, and host heap
// staying flat (O(spill buffers + segment buffer), not O(events)). It takes minutes of host time and tens of
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
	// The tracer records nothing of setup: its buffer has no sink yet.
	tr := trace.New(StreamRingEvents)
	tr.SetMask(0)
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
	tr.SetMask(trace.AllKinds)

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
	if err := wtr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	tr.SetSink(nil)

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
	sum := summ.Summary(st.Events)
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
