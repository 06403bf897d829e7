package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// byCycle delivers a stably cycle-sorted copy of evs: the in-memory
// order WritePerfetto requires.
func byCycle(evs []Event) func(fn func(Event)) error {
	sorted := append([]Event(nil), evs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })
	return func(fn func(Event)) error {
		for _, e := range sorted {
			fn(e)
		}
		return nil
	}
}

// decodePerfetto unmarshals an exported document for schema checks.
func decodePerfetto(t *testing.T, data []byte) (events []map[string]any) {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	raw, ok := doc["traceEvents"].([]any)
	if !ok {
		t.Fatal("document missing traceEvents array")
	}
	for i, r := range raw {
		m, ok := r.(map[string]any)
		if !ok {
			t.Fatalf("traceEvents[%d] is not an object", i)
		}
		events = append(events, m)
	}
	return events
}

func TestPerfettoSchema(t *testing.T) {
	evs := []Event{
		{Cycle: 0, Kind: KTxBegin, Core: 0, Arg: 1},
		{Cycle: 10, Kind: KStore, Core: 0, Addr: 0x1000, Arg: 8},
		{Cycle: 20, Kind: KCommitStart, Core: 0, Arg: 1},
		{Cycle: 30, Kind: KWPQEnqueue, Core: 0, Addr: 0x1000, Arg: 64},
		{Cycle: 40, Kind: KTxCommit, Core: 0, Arg: 1},
		{Cycle: 15, Kind: KTxBegin, Core: 1, Arg: 2},
		{Cycle: 45, Kind: KWPQDrain, Core: 1, Arg: 0},
		{Cycle: 50, Kind: KTxCommit, Core: 1, Arg: 2},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, byCycle(evs)); err != nil {
		t.Fatal(err)
	}
	out := decodePerfetto(t, buf.Bytes())

	threads := map[float64]string{}
	counterSamples := 0
	txSpans := 0
	for _, m := range out {
		ph, _ := m["ph"].(string)
		switch ph {
		case "M":
			if m["name"] == "thread_name" {
				args := m["args"].(map[string]any)
				threads[m["tid"].(float64)] = args["name"].(string)
			}
		case "C":
			if m["name"] != wpqTrack {
				t.Errorf("unexpected counter track %v", m["name"])
			}
			args := m["args"].(map[string]any)
			if _, ok := args["bytes"]; !ok {
				t.Error("counter sample missing bytes arg")
			}
			counterSamples++
		case "X":
			if m["cat"] == "tx" {
				txSpans++
			}
			if _, ok := m["ts"].(float64); !ok {
				t.Error("span missing ts")
			}
		}
	}
	if threads[1] != "core 0" || threads[2] != "core 1" {
		t.Fatalf("per-core tracks missing: %v", threads)
	}
	if counterSamples != 2 {
		t.Fatalf("WPQ counter samples = %d, want 2", counterSamples)
	}
	// One tx span per core plus one commit sub-span (core 0).
	if txSpans != 3 {
		t.Fatalf("tx spans = %d, want 3", txSpans)
	}
}

func TestPerfettoTimeConversion(t *testing.T) {
	evs := []Event{
		{Cycle: 0, Kind: KTxBegin, Core: 0, Arg: 1},
		{Cycle: 4000, Kind: KTxCommit, Core: 0, Arg: 1},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, byCycle(evs)); err != nil {
		t.Fatal(err)
	}
	for _, m := range decodePerfetto(t, buf.Bytes()) {
		if m["ph"] == "X" && m["cat"] == "tx" {
			// 4000 cycles at 2 GHz = 2 µs.
			if dur := m["dur"].(float64); dur != 2 {
				t.Fatalf("dur = %v µs, want 2", dur)
			}
			return
		}
	}
	t.Fatal("no tx span exported")
}

func TestPerfettoClosesTruncatedSpans(t *testing.T) {
	evs := []Event{
		{Cycle: 100, Kind: KTxBegin, Core: 0, Arg: 9},
		{Cycle: 200, Kind: KStore, Core: 0, Addr: 1, Arg: 8},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, byCycle(evs)); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range decodePerfetto(t, buf.Bytes()) {
		if m["ph"] == "X" {
			args := m["args"].(map[string]any)
			if args["truncated"] == true {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("orphaned tx begin must close as a truncated span")
	}
}

// The export is written entry by entry, and its bytes are those of the
// whole document the exporter encoded before it streamed: the golden
// was written by that exporter from perfettoGoldenEvents.
func TestPerfettoGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "perfetto_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, byCycle(perfettoGoldenEvents())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export differs from the golden:\ngot  %s\nwant %s", buf.Bytes(), want)
	}
}

// perfettoGoldenEvents is a two-socket, three-core stream out of cycle
// order that exercises every kind the exporter maps: an aborted and a
// committed transaction, commit spans, redo and undo markers, an epoch
// close, lazy drains, socket-tagged WPQ samples, and a transaction and
// a lazy drain the stream cuts off.
func perfettoGoldenEvents() []Event {
	ev := func(core uint8, cyc uint64, k Kind, addr, arg uint64) Event {
		return Event{Cycle: cyc, Addr: addr, Arg: arg, Kind: k, Core: core}
	}
	return []Event{
		ev(0, 0, KTxBegin, 0, 1),
		ev(1, 3, KTxBegin, 0, 2),
		ev(0, 10, KStore, 0x1000, 8),
		ev(0, 12, KStoreT, 0x1040, 16),
		ev(0, 14, KLogAppend, 0x1000, 24),
		ev(0, 16, KLogPersist, 0x1000, 64),
		ev(0, 18, KLogSync, 0x800, 64),
		ev(0, 20, KCommitStart, 0, 1),
		ev(0, 22, KCommitMarker, 0, 1),
		ev(1, 11, KCacheMiss, 0x2000, 4),
		ev(1, 13, KCacheEvict, 0x2040, 3),
		ev(1, 15, KCohSnoop, 0x1000, 1),
		ev(1, 15, KCohInval, 0x1000, 0),
		ev(1, 17, KCohDowngrade, 0x1040, 0),
		ev(1, 19, KCohWriteback, 0x1040, 0),
		ev(0, 24, KWPQEnqueue, 0x1000, 64),
		ev(1, 24, KWPQEnqueue, 0x2000, WPQArgTag(1)|64),
		ev(0, 25, KWPQStall, 0x1040, 333),
		ev(1, 26, KWPQRemote, 0x2000, 120),
		ev(0, 27, KLazyDefer, 0x1040, 1),
		ev(0, 30, KTxCommit, 0, 1),
		ev(1, 29, KCommitStart, 0, 2),
		ev(1, 31, KTxAbort, 0, 2),
		ev(0, 33, KWPQDrain, 0x1000, 0),
		ev(1, 33, KWPQDrain, 0x2000, WPQArgTag(1)),
		ev(2, 40, KCommitMarker, 1, 7),
		ev(2, 41, KEpochClose, 1, 3),
		ev(2, 42, KEpochClose, 0, 4),
		ev(0, 50, KLazyDrainStart, 0, 2),
		ev(1, 51, KSigHit, 0x1040, 1),
		ev(0, 4001, KLazyDrainEnd, 0, 2),
		ev(0, 4003, KCharge, 5, 4003),
		ev(2, 6000, KTxBegin, 0, 9),
		ev(1, 6001, KLazyDrainStart, 0, 1),
		ev(2, 2, KCharge, 1, 2),
		ev(1, 7777, KStore, 0x3000, 8),
	}
}
