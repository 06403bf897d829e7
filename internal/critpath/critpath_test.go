package critpath

import (
	"slices"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// analyze feeds events to a fresh analyzer through the stream pipeline
// and finalizes it.
func analyze(events []trace.Event, dropped uint64) (*Analysis, error) {
	a := New()
	if _, err := stream.Feed(stream.Events(events), a); err != nil {
		return nil, err
	}
	return a.Analyze(dropped)
}

// microEvents is a hand-built two-core stream with a known critical
// path. Both cores start at cycle 1000 (shared base). Core 1 computes
// [1000,1080], then works the log [1080,1300]; along the way it
// enqueues a line and the device drains it at 1120. Core 0 computes
// [1000,1100], stalls on WPQ backpressure [1100,1150] — released by
// core 1's drain — then computes to 1400. The makespan is core 0's
// 400 cycles; the critical path is core 1's prefix up to 1100 (hop
// target), the stall, and core 0's tail.
func microEvents() []trace.Event {
	ev := func(core int, cyc uint64, k trace.Kind, addr, arg uint64) trace.Event {
		return trace.Event{Cycle: cyc, Addr: addr, Arg: arg, Kind: k, Core: uint8(core)}
	}
	return []trace.Event{
		// Store/coherence traffic on line 0x2000: core 0 writes, core 1
		// takes ownership (ping-pong), core 0 invalidates back.
		ev(0, 1010, trace.KStore, 0x2000, 8),
		ev(1, 1020, trace.KStore, 0x2010, 8),
		ev(0, 1030, trace.KCohInval, 0x2000, 0),
		// Core 1 persists a line; the device retires it at 1120.
		ev(1, 1050, trace.KWPQEnqueue, 0x1040, 64),
		ev(1, 1080, trace.KCharge, uint64(profile.CauseCompute), 80),
		ev(1, 1120, trace.KWPQDrain, 0x1040, 0),
		// Core 0's stall ends at 1150 after waiting 50 cycles; the drain
		// above freed the space (emission order is the witness).
		ev(0, 1100, trace.KCharge, uint64(profile.CauseCompute), 100),
		ev(0, 1150, trace.KWPQStall, 0x2000, 50),
		ev(0, 1150, trace.KCharge, uint64(profile.CauseWPQStall), 50),
		// A retained-signature hit on an otherwise quiet line.
		ev(0, 1160, trace.KSigHit, 0x2040, 1),
		ev(0, 1400, trace.KCharge, uint64(profile.CauseCompute), 250),
		ev(1, 1300, trace.KCharge, uint64(profile.CauseLogSync), 220),
	}
}

func TestMicroDAGGolden(t *testing.T) {
	an, err := analyze(microEvents(), 0)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if err := an.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if an.Cores != 2 || an.Start != 1000 || an.Makespan != 400 {
		t.Fatalf("region: cores=%d start=%d makespan=%d, want 2/1000/400",
			an.Cores, an.Start, an.Makespan)
	}
	if an.PathLen != 400 {
		t.Fatalf("path length %d, want 400 (== makespan)", an.PathLen)
	}

	// Per-cause critical shares: core 0's compute tail (250) + core 1's
	// compute prefix (80) = 330 compute, 50 wpq.stall, and 20 cycles of
	// core 1's log.sync (the slice between its compute and the hop
	// point at 1100).
	want := map[profile.Cause]uint64{
		profile.CauseCompute:  330,
		profile.CauseWPQStall: 50,
		profile.CauseLogSync:  20,
	}
	for c, n := range want {
		if an.PathCycles[c] != n {
			t.Errorf("path cycles for %s = %d, want %d", c, an.PathCycles[c], n)
		}
	}
	if got := an.PathCycles.Sum(); got != 400 {
		t.Errorf("path cycles sum %d, want 400", got)
	}

	if an.Hops != 1 || an.HopsByEdge[EdgeWPQDrain] != 1 {
		t.Fatalf("hops=%d byEdge=%v, want one wpq.drain hop", an.Hops, an.HopsByEdge)
	}
	wantSteps := []Step{
		{Core: 1, Cause: profile.CauseCompute, Start: 1000, End: 1080, Edge: EdgeProgram},
		{Core: 1, Cause: profile.CauseLogSync, Start: 1080, End: 1100, Edge: EdgeProgram},
		{Core: 0, Cause: profile.CauseWPQStall, Start: 1100, End: 1150, Edge: EdgeWPQDrain},
		{Core: 0, Cause: profile.CauseCompute, Start: 1150, End: 1400, Edge: EdgeProgram},
	}
	if len(an.Steps) != len(wantSteps) {
		t.Fatalf("steps %v, want %v", an.Steps, wantSteps)
	}
	for i, s := range wantSteps {
		if an.Steps[i] != s {
			t.Errorf("step %d = %+v, want %+v", i, an.Steps[i], s)
		}
	}

	// The DAG: three nodes on core 0, two on core 1, one materialized
	// wait edge (core 1's first node -> core 0's stall node). The
	// coherence hint at 1030 finds no source node that finishes before
	// its target starts, so it stays a hint, not an edge.
	// The Analysis keeps the counts; the analyzer's per-core lists hold
	// the edges.
	if an.Nodes != 5 || an.Edges != 1 {
		t.Fatalf("dag: %d nodes %d edges, want 5/1", an.Nodes, an.Edges)
	}
	a := New()
	if _, err := stream.Feed(stream.Events(microEvents()), a); err != nil {
		t.Fatal(err)
	}
	if es := a.waitEdges(1); len(es) != 0 {
		t.Fatalf("edges into core 1: %+v, want none", es)
	}
	want0 := []Edge{{Kind: EdgeWPQDrain, FromCore: 1, From: 0, To: 1}}
	if es := a.waitEdges(0); !slices.Equal(es, want0) {
		t.Fatalf("edges into core 0: %+v, want %+v", es, want0)
	}

	// CPM slack: the three core-0 nodes are critical (slack 0); core 1's
	// compute must finish by 1100 to release the stall (slack 20), and
	// its log tail can slide to the makespan (slack 100).
	slack := map[Node]uint64{}
	for _, s := range an.SlackTop {
		slack[s.Node] = s.Slack
	}
	wantSlack := []struct {
		core  int
		cause profile.Cause
		start uint64
		slack uint64
	}{
		{0, profile.CauseCompute, 1000, 0},
		{0, profile.CauseWPQStall, 1100, 0},
		{0, profile.CauseCompute, 1150, 0},
		{1, profile.CauseCompute, 1000, 20},
		{1, profile.CauseLogSync, 1080, 100},
	}
	for _, w := range wantSlack {
		found := false
		for n, s := range slack {
			if n.Core == w.core && n.Cause == w.cause && n.Start == w.start {
				found = true
				if s != w.slack {
					t.Errorf("slack(core %d %s @%d) = %d, want %d", w.core, w.cause, w.start, s, w.slack)
				}
			}
		}
		if !found {
			t.Errorf("no slack entry for core %d %s @%d", w.core, w.cause, w.start)
		}
	}

	// What-if projections: zeroing the stall takes core 0 to 350 while
	// core 1 holds 300; the other standard projections change nothing
	// in this stream.
	wantProj := map[string]uint64{
		"commit-flush-async": 400,
		"wpq-infinite":       350,
		"remote-zeroed":      400,
		"window-inf":         400,
	}
	for _, p := range an.WhatIf {
		if want, ok := wantProj[p.Name]; !ok || p.Makespan != want {
			t.Errorf("projection %s makespan %d, want %d", p.Name, p.Makespan, wantProj[p.Name])
		}
	}
	if len(an.WhatIf) != len(wantProj) {
		t.Errorf("%d projections, want %d", len(an.WhatIf), len(wantProj))
	}

	// Hot lines: 0x2000 leads (coherence transfer + ping-pong + stall),
	// then the sig-hit line, then the drained line (residency only).
	if an.TotalLines != 3 || len(an.HotLines) != 3 {
		t.Fatalf("hot lines: total=%d listed=%d, want 3/3", an.TotalLines, len(an.HotLines))
	}
	h := an.HotLines[0]
	if h.Addr != 0x2000 || h.Score() != 3 || h.StallCycles != 50 || h.PingPong != 1 || h.Transfers != 1 {
		t.Fatalf("top hot line = %+v, want 0x2000 score 3 stall 50", h)
	}
	if h := an.HotLines[1]; h.Addr != 0x2040 || h.SigHits != 1 {
		t.Fatalf("second hot line = %+v, want 0x2040 sig 1", h)
	}
	if h := an.HotLines[2]; h.Addr != 0x1040 || h.Residency != 70 || h.Enqueues != 1 {
		t.Fatalf("third hot line = %+v, want 0x1040 residency 70", h)
	}
}

// TestRenderDeterministic replays the same stream through two fresh
// analyzers — once through stream.Feed (kind-masked, as the harness
// feeds it), once by consuming every event unfiltered — and requires
// byte-identical reports.
func TestRenderDeterministic(t *testing.T) {
	evs := microEvents()
	a1, err := analyze(evs, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	if c.Kinds() == 0 {
		t.Fatal("empty kind mask")
	}
	for _, e := range evs {
		c.Consume(e)
	}
	a2, err := c.Analyze(0)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := a1.Render(10), a2.Render(10)
	if r1 != r2 {
		t.Fatalf("renders differ:\n%s\n---\n%s", r1, r2)
	}
	for _, want := range []string{
		"makespan 400 cycles over 2 cores, path length 400, 1 cross-core hops",
		"wpq.drain=1",
		"compute                330  crit  82.5%  raw  61.4%",
		"wpq-infinite       makespan          350  speedup 1.14x",
		"0x2000",
	} {
		if !strings.Contains(r1, want) {
			t.Errorf("render missing %q:\n%s", want, r1)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ch := func(core int, cyc uint64, cause profile.Cause, n uint64) trace.Event {
		return trace.Event{Cycle: cyc, Addr: uint64(cause), Arg: n, Kind: trace.KCharge, Core: uint8(core)}
	}
	if _, err := analyze(microEvents(), 3); err == nil {
		t.Error("dropped events: want error")
	}
	if _, err := analyze(nil, 0); err == nil {
		t.Error("no charges: want error")
	}
	// A gap in the tiling (segment starts after the previous ends).
	if _, err := analyze([]trace.Event{
		ch(0, 1100, profile.CauseCompute, 100),
		ch(0, 1300, profile.CauseCompute, 50),
	}, 0); err == nil {
		t.Error("tiling gap: want error")
	}
	// A wait hint stamped before the core's previous one (hintPeer and
	// waitEdges binary-search a core's hints by cycle).
	if _, err := analyze([]trace.Event{
		{Cycle: 1010, Addr: 0x2000, Arg: 8, Kind: trace.KStore, Core: 1},
		{Cycle: 1050, Addr: 0x2000, Kind: trace.KCohInval, Core: 0},
		{Cycle: 1030, Addr: 0x2000, Kind: trace.KCohSnoop, Core: 0},
		ch(0, 1100, profile.CauseCoherence, 100),
	}, 0); err == nil || !strings.Contains(err.Error(), "wait hint at cycle 1030 follows one at 1050") {
		t.Errorf("out-of-order hint: error %v, want the hint order named", err)
	}
	// An out-of-range cause.
	if _, err := analyze([]trace.Event{
		{Cycle: 100, Addr: 999, Arg: 10, Kind: trace.KCharge, Core: 0},
	}, 0); err == nil {
		t.Error("unknown cause: want error")
	}
}

// TestEdgeKindRegistry pins the slpmtvet-enforced shape: every edge
// kind has a canonical name and at least one witnessing trace kind.
func TestEdgeKindRegistry(t *testing.T) {
	ks := EdgeKinds()
	if len(ks) != int(numEdgeKinds) {
		t.Fatalf("EdgeKinds() returned %d kinds, want %d", len(ks), numEdgeKinds)
	}
	seen := map[string]bool{}
	for _, k := range ks {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "edge(") {
			t.Errorf("edge kind %d has no canonical name", k)
		}
		if seen[name] {
			t.Errorf("duplicate edge name %q", name)
		}
		seen[name] = true
		if len(k.Kinds()) == 0 {
			t.Errorf("edge kind %s declares no witnessing trace kinds", name)
		}
	}
}
