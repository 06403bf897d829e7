package stream

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/trace"
)

// randEvents builds a random event batch: arbitrary kinds (including
// WPQ events with socket-tagged args, exercising the mask boundaries of
// the 56-bit occupancy encoding), per-core non-decreasing cycles.
func randEvents(rng *rand.Rand, n, cores int) []trace.Event {
	clk := make([]uint64, cores)
	evs := make([]trace.Event, n)
	for i := range evs {
		c := rng.Intn(cores)
		clk[c] += uint64(rng.Intn(50))
		k := trace.Kind(1 + rng.Intn(25))
		arg := rng.Uint64()
		switch k {
		case trace.KWPQEnqueue, trace.KWPQDrain:
			arg = trace.WPQArgTag(rng.Intn(4)) | uint64(rng.Intn(1<<20))
		case trace.KStore, trace.KStoreT, trace.KLogAppend:
			// Sizes the sanitizer walks line-by-line: keep them sane.
			arg = uint64(1 + rng.Intn(256))
		}
		evs[i] = trace.Event{
			Cycle: clk[c], Addr: rng.Uint64(), Arg: arg,
			Kind: k, Core: uint8(c),
		}
	}
	return evs
}

// buildStream drives events through a real tracer + sink writer into
// dir, returning the writer for post-close inspection.
func buildStream(t *testing.T, dir string, evs []trace.Event, ringCap, segEvents int, cs ...Consumer) *Writer {
	t.Helper()
	tr := trace.New(ringCap)
	w, err := NewWriter(dir, segEvents, cs...)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	tr.SetSink(w)
	for _, e := range evs {
		tr.Emit(e.Core, e.Cycle, e.Kind, e.Addr, e.Arg)
	}
	tr.Flush()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events with a sink attached", d)
	}
	return w
}

// readAll collects a source's events in stream order.
func readAll(src Source) ([]trace.Event, *Stats, error) {
	var events []trace.Event
	st, err := src.Iter(func(e trace.Event) { events = append(events, e) })
	return events, st, err
}

// followSource reads a closed stream through Dir.Follow.
type followSource struct{ d *Dir }

func (f followSource) Iter(fn func(trace.Event)) (*Stats, error) {
	return f.d.Follow(fn, time.Millisecond)
}

// summarize feeds src to a fresh Summarizer and renders its summary.
func summarize(t *testing.T, src Source) (trace.Summary, *Summarizer) {
	t.Helper()
	s := NewSummarizer()
	st, err := Feed(src, s)
	if err != nil {
		t.Fatal(err)
	}
	return s.Summary(st.Events, st.Dropped), s
}

// sanitize feeds src to a fresh streaming sanitizer and returns its
// report with the violation order normalized.
func sanitize(t *testing.T, src Source) *trace.Report {
	t.Helper()
	z := NewSanitize()
	if _, err := Feed(src, z); err != nil {
		t.Fatal(err)
	}
	rep := z.Report(0)
	sortViolations(rep.Violations)
	return rep
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		// Sizes straddle the ring and segment boundaries: empty, one
		// record, exact multiples, and off-by-one around both.
		n := []int{0, 1, 63, 64, 65, 1000, 4096, 4097}[trial]
		evs := randEvents(rng, n, 4)
		dir := t.TempDir()
		w := buildStream(t, dir, evs, 64, 256)
		if got := w.Events(); got != uint64(n) {
			t.Fatalf("n=%d: writer streamed %d events", n, got)
		}
		d, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		got, st, err := readAll(d)
		if err != nil {
			t.Fatalf("n=%d: read back: %v", n, err)
		}
		if !d.Closed() || !st.Closed {
			t.Fatalf("n=%d: stream not marked closed", n)
		}
		if st.Torn != nil {
			t.Fatalf("n=%d: unexpected tear: %v", n, st.Torn)
		}
		if len(got) != n || (n > 0 && !reflect.DeepEqual(got, evs)) {
			t.Fatalf("n=%d: round trip mismatch: got %d events", n, len(got))
		}
	}
}

func TestRoundTripMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	evs := randEvents(rng, 2000, 3)
	dir := t.TempDir()
	tr := trace.New(128)
	tr.SetMask(trace.SanitizeMask())
	w, err := NewWriter(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetSink(w)
	var want []trace.Event
	for _, e := range evs {
		tr.Emit(e.Core, e.Cycle, e.Kind, e.Addr, e.Arg)
		if trace.SanitizeMask()&(1<<uint(e.Kind)) != 0 {
			want = append(want, e)
		}
	}
	tr.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, _ := Open(dir)
	got, _, err := readAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("masked round trip mismatch: got %d want %d events", len(got), len(want))
	}
}

func TestSegmentHeaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	evs := randEvents(rng, 1000, 3)
	dir := t.TempDir()
	buildStream(t, dir, evs, 64, 256)
	d, _ := Open(dir)
	segs := d.Segments()
	if want := (1000 + 255) / 256; len(segs) != want {
		t.Fatalf("got %d segments, want %d", len(segs), want)
	}
	seen := 0
	for i := range segs {
		hdr, err := d.Header(i)
		if err != nil {
			t.Fatalf("segment %d header: %v", i, err)
		}
		chunk := evs[seen : seen+hdr.Count]
		lo, hi := ^uint64(0), uint64(0)
		perCore := map[uint8]uint64{}
		for _, e := range chunk {
			perCore[e.Core]++
			if e.Cycle < lo {
				lo = e.Cycle
			}
			if e.Cycle > hi {
				hi = e.Cycle
			}
		}
		if hdr.FirstCycle != lo || hdr.LastCycle != hi {
			t.Fatalf("segment %d cycle span [%d,%d], want [%d,%d]",
				i, hdr.FirstCycle, hdr.LastCycle, lo, hi)
		}
		var cores []int
		for c := range perCore {
			cores = append(cores, int(c))
		}
		sort.Ints(cores)
		if len(hdr.CoreCounts) != len(cores) {
			t.Fatalf("segment %d: %d core entries, want %d", i, len(hdr.CoreCounts), len(cores))
		}
		for j, c := range cores {
			if hdr.CoreCounts[j].Core != uint8(c) || hdr.CoreCounts[j].Count != perCore[uint8(c)] {
				t.Fatalf("segment %d core entry %d = %+v, want core %d count %d",
					i, j, hdr.CoreCounts[j], c, perCore[uint8(c)])
			}
		}
		seen += hdr.Count
	}
	if seen != len(evs) {
		t.Fatalf("headers cover %d events, want %d", seen, len(evs))
	}
}

// TestTornLastSegment truncates the final segment at every byte of its
// header (and every record boundary region beyond) and checks the
// reader recovers exactly the durable prefix.
func TestTornLastSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	evs := randEvents(rng, 600, 2) // 2 full segments of 256 + final 88
	dir := t.TempDir()
	buildStream(t, dir, evs, 64, 256)
	d, _ := Open(dir)
	segs := d.Segments()
	last := filepath.Join(dir, segs[len(segs)-1])
	whole, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := segFixedHeader + 2*segCoreEntry
	cuts := make([]int, 0, headerLen+8)
	for i := 0; i <= headerLen; i++ { // every byte of the header
		cuts = append(cuts, i)
	}
	// Plus tears inside the record area: mid-record and between records.
	cuts = append(cuts,
		headerLen+1, headerLen+trace.RecordSize-1, headerLen+trace.RecordSize,
		headerLen+5*trace.RecordSize+13, len(whole)-1)
	durable := 512 // events in the two fsync'd segments
	for _, cut := range cuts {
		if err := os.WriteFile(last, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		dd, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Iter and Follow (the stream is closed) must both recover it.
		for _, read := range []struct {
			name string
			src  Source
		}{{"Iter", dd}, {"Follow", followSource{dd}}} {
			got, st, err := readAll(read.src)
			if err != nil {
				t.Fatalf("%s cut=%d: %v", read.name, cut, err)
			}
			if st.Torn == nil {
				t.Fatalf("%s cut=%d: tear not reported", read.name, cut)
			}
			if st.Torn.Segment != segs[len(segs)-1] || st.Torn.Offset != int64(cut) {
				t.Fatalf("%s cut=%d: tear at %s+%d", read.name, cut, st.Torn.Segment, st.Torn.Offset)
			}
			wantN := durable
			if cut > headerLen {
				wantN += (cut - headerLen) / trace.RecordSize
			}
			if len(got) != wantN {
				t.Fatalf("%s cut=%d: recovered %d events, want %d", read.name, cut, len(got), wantN)
			}
			if !reflect.DeepEqual(got, evs[:wantN]) {
				t.Fatalf("%s cut=%d: recovered prefix differs", read.name, cut)
			}
		}
	}
	// A torn non-final segment is corruption, not recovery.
	if err := os.WriteFile(last, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, segs[0])
	fw, _ := os.ReadFile(first)
	if err := os.WriteFile(first, fw[:len(fw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	dd, _ := Open(dir)
	if _, _, err := readAll(dd); err == nil {
		t.Fatal("torn non-final segment not rejected")
	}
}

// A file that is not a segment is corruption, not a tear: the decoder
// and the directory reader both reject it.
func TestDecodeSegmentRejectsGarbage(t *testing.T) {
	garbage := []byte("not a trace segment at all, but long enough for a header")
	if _, _, _, err := decodeSegment(garbage, func(trace.Event) {}); err == nil {
		t.Fatal("decodeSegment accepted a bad magic")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Iter(func(trace.Event) {}); err == nil {
		t.Fatal("Dir.Iter accepted a bad segment magic")
	}
}

func FuzzDecodeSegment(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	f.Add(encodeSegment(randEvents(rng, 40, 3), 2))
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-deliver, whatever the bytes.
		n := 0
		hdr, _, ok, err := decodeSegment(data, func(trace.Event) { n++ })
		if ok && err == nil && n != hdr.Count {
			t.Fatalf("clean decode delivered %d of %d records", n, hdr.Count)
		}
	})
}

// The analyses read the on-disk binlog exactly as they read the ring:
// a Summarizer fed from a multi-segment stream directory equals one fed
// from the in-memory events, and stays in exact mode.
func TestSummarizerMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	evs := randEvents(rng, 5000, 4)
	dir := t.TempDir()
	buildStream(t, dir, evs, 128, 512)
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := summarize(t, Events(evs))
	got, s := summarize(t, d)
	if got != want {
		t.Fatalf("on-disk summary %+v\nwant %+v", got, want)
	}
	if s.Sketched() {
		t.Fatal("summarizer sketched below the exact bound")
	}
}

// The streaming sanitizer must see every event (AllKinds), so replaying
// the binlog through it reports the same violations, at the same event
// indices, as stepping a Sanitizer over the whole in-memory stream.
func TestSanitizeMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := randEvents(rng, 3000, 3)
	dir := t.TempDir()
	buildStream(t, dir, evs, 128, 512)
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	z := trace.NewSanitizer()
	for _, e := range evs {
		z.Step(e)
	}
	want := z.Report(0)
	if want.Total == 0 {
		t.Fatal("random stream raised no violations; the index check is vacuous")
	}
	sortViolations(want.Violations)
	if got := sanitize(t, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("on-disk sanitize differs:\ngot  %+v\nwant %+v", got, want)
	}
}

func sortViolations(vs []trace.Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Index != vs[j].Index {
			return vs[i].Index < vs[j].Index
		}
		return vs[i].Detail < vs[j].Detail
	})
}

// The two-pass WPQ fold re-reads its source: over a stream directory
// both passes must see the same events the in-memory source holds.
func TestBucketWPQMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	evs := randEvents(rng, 4000, 4)
	want, err := BucketWPQ(Events(evs), 16)
	if err != nil {
		t.Fatal(err)
	}
	if want == nil {
		t.Fatal("random stream produced no WPQ series")
	}
	dir := t.TempDir()
	buildStream(t, dir, evs, 128, 512)
	d, _ := Open(dir)
	got, err := BucketWPQ(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("on-disk WPQ series differs:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestQSketchErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4; trial++ {
		var q QSketch
		xs := make([]uint64, 20000)
		for i := range xs {
			v := uint64(rng.Intn(1 << uint(8+4*trial)))
			xs[i] = v
			q.Add(v)
		}
		exact := append([]uint64(nil), xs...)
		for _, p := range []int{50, 95, 99} {
			e50, e95, e99 := trace.Percentiles(exact)
			want := map[int]uint64{50: e50, 95: e95, 99: e99}[p]
			got := q.Quantile(p)
			if got < want || got > want+want>>qsketchSubBits+1 {
				t.Fatalf("trial %d p%d: sketch %d vs exact %d exceeds 2^-%d bound",
					trial, p, got, want, qsketchSubBits)
			}
		}
	}
}

func TestSummarizerSketchFallback(t *testing.T) {
	s := NewSummarizer()
	// Overflow the exact bound: MaxExactSamples+K commits with latency
	// equal to their index, so the exact percentiles are known.
	n := MaxExactSamples + 1000
	for i := 0; i < n; i++ {
		s.Consume(trace.Event{Cycle: 0, Kind: trace.KTxBegin, Core: 0})
		s.Consume(trace.Event{Cycle: uint64(i + 1), Kind: trace.KTxCommit, Core: 0})
	}
	if !s.Sketched() {
		t.Fatal("summarizer did not fall back to sketch past the bound")
	}
	sum := s.Summary(2*n, 0)
	if sum.Commits != n {
		t.Fatalf("sketched commit count %d, want %d", sum.Commits, n)
	}
	exact := uint64((50*n + 99) / 100) // nearest-rank p50 of 1..n
	got := sum.CommitP50
	if got < exact || got > exact+exact>>qsketchSubBits+1 {
		t.Fatalf("sketched p50 %d vs exact %d exceeds bound", got, exact)
	}
}

func TestTelemetryConservationAndTelescoping(t *testing.T) {
	// Two cores advancing by charged amounts: conservation must hold,
	// and summing the interval vectors must reproduce the totals.
	tele := NewTelemetry(100, nil)
	totals := map[string]uint64{}
	clk := [2]uint64{17, 400} // nonzero bases: measured region starts mid-run
	rng := rand.New(rand.NewSource(10))
	causes := []profile.Cause{profile.CauseCompute, profile.CauseLogAppend, profile.CauseLogSync}
	commits := 0
	for i := 0; i < 2000; i++ {
		c := uint8(i % 2)
		cause := causes[rng.Intn(len(causes))]
		adv := uint64(1 + rng.Intn(30))
		clk[c] += adv
		tele.Consume(trace.Event{Cycle: clk[c], Addr: uint64(cause), Arg: adv, Kind: trace.KCharge, Core: c})
		totals[cause.String()] += adv
		if i%10 == 0 {
			tele.Consume(trace.Event{Cycle: clk[c], Arg: 1, Kind: trace.KTxCommit, Core: c})
			commits++
		}
	}
	tele.Flush()
	if err := tele.Err(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	got := map[string]uint64{}
	var gotCommits uint64
	ivs := tele.Intervals()
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Index <= ivs[i-1].Index {
			t.Fatal("intervals out of order")
		}
	}
	for _, iv := range ivs {
		for k, v := range iv.CyclesByCause {
			got[k] += v
		}
		gotCommits += iv.Commits
	}
	if !reflect.DeepEqual(got, totals) {
		t.Fatalf("interval vectors do not telescope:\ngot  %v\nwant %v", got, totals)
	}
	if gotCommits != uint64(commits) {
		t.Fatalf("interval commits %d, want %d", gotCommits, commits)
	}

	// A gap in the charge stream (an unattributed advance) must trip
	// the per-event conservation check.
	bad := NewTelemetry(100, nil)
	bad.Consume(trace.Event{Cycle: 50, Addr: uint64(profile.CauseCompute), Arg: 50, Kind: trace.KCharge, Core: 0})
	bad.Consume(trace.Event{Cycle: 120, Addr: uint64(profile.CauseCompute), Arg: 20, Kind: trace.KCharge, Core: 0})
	if bad.Err() == nil {
		t.Fatal("unattributed clock advance not detected")
	}
}

func TestTelemetryNDJSON(t *testing.T) {
	var buf bytes.Buffer
	tele := NewTelemetry(100, &buf)
	for i := uint64(1); i <= 500; i++ {
		tele.Consume(trace.Event{Cycle: i, Kind: trace.KStore, Core: 0})
	}
	tele.Flush()
	lines := bytes.Count(buf.Bytes(), []byte{'\n'})
	if lines != len(tele.Intervals()) || lines == 0 {
		t.Fatalf("%d NDJSON lines for %d intervals", lines, len(tele.Intervals()))
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"events":100`)) {
		t.Fatalf("NDJSON missing per-interval counts: %s", buf.String())
	}
}

func TestWriterResetDiscardsSetup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	setup := randEvents(rng, 700, 2)
	dir := t.TempDir()
	tr := trace.New(64)
	s := NewSummarizer()
	w, err := NewWriter(dir, 128, s)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetSink(w)
	for _, e := range setup {
		tr.Emit(e.Core, e.Cycle, e.Kind, e.Addr, e.Arg)
	}
	tr.Reset() // measured-region boundary: everything so far is setup
	measured := randEvents(rng, 300, 2)
	for _, e := range measured {
		tr.Emit(e.Core, e.Cycle, e.Kind, e.Addr, e.Arg)
	}
	tr.Flush()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, _ := Open(dir)
	got, st, err := readAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, measured) {
		t.Fatalf("stream holds %d events after reset, want the %d measured ones", len(got), len(measured))
	}
	want, _ := summarize(t, Events(measured))
	if sum := s.Summary(st.Events, 0); sum != want {
		t.Fatalf("live summarizer not reset: %+v want %+v", sum, want)
	}
}

// Consumers attached live to the Writer (fed from the tracer's spill
// path) end in the same state as fresh consumers fed offline from the
// same events.
func TestLiveConsumersMatchOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	evs := randEvents(rng, 3000, 4)
	dir := t.TempDir()
	s := NewSummarizer()
	z := NewSanitize()
	buildStream(t, dir, evs, 64, 256, s, z)
	want, _ := summarize(t, Events(evs))
	if got := s.Summary(len(evs), 0); got != want {
		t.Fatalf("live summary %+v, want %+v", got, want)
	}
	got := z.Report(0)
	sortViolations(got.Violations)
	if !reflect.DeepEqual(got, sanitize(t, Events(evs))) {
		t.Fatal("live sanitize report differs from offline")
	}
}

func TestFollowCompletedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	evs := randEvents(rng, 900, 2)
	dir := t.TempDir()
	buildStream(t, dir, evs, 64, 256)
	d, _ := Open(dir)
	var got []trace.Event
	st, err := d.Follow(func(e trace.Event) { got = append(got, e) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Closed || !reflect.DeepEqual(got, evs) {
		t.Fatalf("follow delivered %d events (closed=%v), want %d", len(got), st.Closed, len(evs))
	}
}
