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
	zs := stream.NewSanitize()
	if _, err := stream.Feed(src, zs); err != nil {
		t.Fatal(err)
	}
	rep := zs.Report(dropped)
	sort.Slice(rep.Violations, func(i, j int) bool {
		vi, vj := rep.Violations[i], rep.Violations[j]
		if vi.Index != vj.Index {
			return vi.Index < vj.Index
		}
		return vi.Detail < vj.Detail
	})
	return rep
}

// A streamed run reduces exactly like a ring run: against the same
// config traced into a full-detail ring with zero drops, it has the
// same cycles and counters, and its Summary, WPQ series, sanitizer
// report and Perfetto export (replayed from the binlog) equal the
// ring's. Covers single-
// and multi-core.
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
		if got.WPQ == nil || !reflect.DeepEqual(got.WPQ, ring.WPQ) {
			t.Fatalf("cores=%d: streamed WPQ series differs from the ring's", cores)
		}

		d, err := stream.Open(streamed.StreamDir)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Closed() {
			t.Fatalf("cores=%d: stream not closed", cores)
		}
		want := sanitizeReport(t, stream.Events(tr.Events()), tr.Dropped())
		if rep := sanitizeReport(t, d, 0); !reflect.DeepEqual(rep, want) {
			t.Fatalf("cores=%d: streamed sanitize report %+v, ring %+v", cores, rep, want)
		}
		if want.Transactions == 0 {
			t.Fatalf("cores=%d: sanitizer replayed no transactions", cores)
		}

		// Perfetto: the binlog's events export byte for byte like the
		// ring's (slpmtbench -trace writes the binlog's).
		var evs []trace.Event
		if _, err := d.Iter(func(e trace.Event) { evs = append(evs, e) }); err != nil {
			t.Fatal(err)
		}
		var fromLog, fromRing bytes.Buffer
		if err := trace.WritePerfetto(&fromLog, evs, trace.PerfettoOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := trace.WritePerfetto(&fromRing, tr.Events(), trace.PerfettoOptions{}); err != nil {
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
