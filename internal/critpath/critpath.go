// Package critpath is the causal critical-path analyzer: it replays a
// run's event stream (the Analyzer is an online stream consumer, fed a
// run's ring spills live or a saved binlog offline) into a cross-core
// blocking DAG and answers the question per-core attribution cannot:
// what chain of waits actually bounds the parallel makespan, and which
// cache lines serialize it.
//
// The analysis rests on the profiler's conservation contract
// (internal/profile): every cycle a core's clock advances is charged to
// exactly one cause, and the KCharge stream carries each charge as a
// post-advance (cycle, cause, cycles) record, so a core's charge
// segments [cycle-arg, cycle] tile its measured region exactly. All
// cores share the measured-region start (the bench harness syncs clocks
// at the boundary), so a backward time-tiled "blame walk" from the
// makespan core's last segment — hopping to the responsible peer core
// at segments whose cause is a cross-core wait — covers the makespan
// interval exactly once: the critical-path length equals the measured
// makespan and the per-cause path shares sum to it, by construction.
// The contract is checked, not assumed (Analysis.Check).
//
// Three results come out:
//
//   - The critical path with a per-cause breakdown reusing the
//     profiler's cause taxonomy: "log.sync is 85% of core-cycles"
//     becomes "log.sync is N% of the *critical* path".
//   - Per-node slack from a CPM pass over the explicit DAG (nodes are
//     coalesced charge segments, edges are program order plus the
//     waits-for relations below), feeding what-if projections: the
//     projected makespan with a cause zeroed on every core, validated
//     against the measured window/NUMA sweeps.
//   - A hot-line observatory: per-address contention ranking from the
//     coherence, WPQ and signature-hit streams (transfer counts,
//     serialization cycles, owning-core ping-pong, per-line signature
//     hits), seeding contention-aware scheduling work.
//
// Wait-edge attribution is a deterministic heuristic (the trace records
// what happened, not why): a wpq.stall segment blames the core whose
// drain freed the queue space (the last KWPQDrain in emission order —
// the device retires the blocking entry immediately before the stall
// event); a coherence segment blames the line's last writer; a
// lazy.drain segment blames the conflicting storer behind the
// signature hit. The conservation contract holds regardless of hop
// choices — hops only redistribute blame across cores, never cycles.
//
// Everything here is observation-only: the analyzer consumes a trace
// after (or while) it is written and never feeds back into timing.
package critpath

import (
	"fmt"
	"sort"
	"strings"

	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/trace"
)

// EdgeKind classifies a waits-for edge in the blocking DAG.
type EdgeKind uint8

const (
	// EdgeProgram is same-core program order: a core's consecutive
	// charge segments form a serial chain.
	EdgeProgram EdgeKind = iota
	// EdgeWPQDrain is WPQ backpressure released by a peer: the stalled
	// persist waited for queue space another core's entry was holding.
	EdgeWPQDrain
	// EdgeCoherence is a cross-core cache-line transfer: the charged
	// core waited on the line's last writer.
	EdgeCoherence
	// EdgeLazyConflict is a forced lazy drain: a conflicting store hit
	// a retained transaction's signature and the owning core drained
	// on the storer's behalf.
	EdgeLazyConflict
	numEdgeKinds
)

// edgeNames maps edge kinds to their canonical dotted names. Every edge
// kind must have an entry; slpmtvet enforces this statically.
var edgeNames = [numEdgeKinds]string{
	EdgeProgram:      "program",
	EdgeWPQDrain:     "wpq.drain",
	EdgeCoherence:    "coherence",
	EdgeLazyConflict: "lazy.conflict",
}

// edgeKinds ties every edge kind to the trace kinds that witness it in
// the event stream, mirroring profile's causeKinds registry. slpmtvet
// requires a non-empty entry per edge kind, so a waits-for relation
// cannot be added without declaring how it shows up in a trace.
var edgeKinds = [numEdgeKinds][]trace.Kind{
	EdgeProgram:      {trace.KCharge},
	EdgeWPQDrain:     {trace.KWPQStall, trace.KWPQDrain},
	EdgeCoherence:    {trace.KCohSnoop, trace.KCohInval, trace.KCohDowngrade, trace.KCohWriteback},
	EdgeLazyConflict: {trace.KSigHit, trace.KLazyDrainStart},
}

// String returns the edge kind's canonical name.
func (k EdgeKind) String() string {
	if k < numEdgeKinds {
		return edgeNames[k]
	}
	return fmt.Sprintf("edge(%d)", uint8(k))
}

// Kinds returns the trace kinds witnessing the edge kind.
func (k EdgeKind) Kinds() []trace.Kind {
	if k < numEdgeKinds {
		return edgeKinds[k]
	}
	return nil
}

// EdgeKinds returns every edge kind, in enum order.
func EdgeKinds() []EdgeKind {
	out := make([]EdgeKind, 0, numEdgeKinds)
	for k := EdgeKind(0); k < numEdgeKinds; k++ {
		out = append(out, k)
	}
	return out
}

// blockingEdge maps a charge cause to the waits-for edge kind its
// segments hop along (false = the cause is same-core work).
func blockingEdge(c profile.Cause) (EdgeKind, bool) {
	switch c {
	case profile.CauseWPQStall:
		return EdgeWPQDrain, true
	case profile.CauseCoherence:
		return EdgeCoherence, true
	case profile.CauseLazyDrain:
		return EdgeLazyConflict, true
	}
	return EdgeProgram, false
}

// Node is one DAG node: a maximal run of consecutive same-cause charge
// segments on one core, [Start, End) in absolute cycles.
type Node struct {
	Core  int
	Cause profile.Cause
	Start uint64
	End   uint64
}

// Dur returns the node's duration in cycles.
func (n Node) Dur() uint64 { return n.End - n.Start }

// Edge is one waits-for DAG edge between indices into the DAG's
// core-major node list. Program-order edges are implicit per core and
// not materialized; Edge carries only the cross-core wait relations.
type Edge struct {
	Kind     EdgeKind
	From, To int
}

// Step is one critical-path segment, oldest first: the walk attributed
// [Start, End) on Core to Cause, and the path entered this step from
// the previous step via Edge (EdgeProgram = same-core program order; a
// wait kind = the path hopped cores to reach this blocked segment).
type Step struct {
	Core  int
	Cause profile.Cause
	Start uint64
	End   uint64
	Edge  EdgeKind
}

// SlackEntry is one DAG node with its total slack: how far the node
// could finish later (with every other duration fixed) without growing
// the makespan. Critical-path nodes have zero slack.
type SlackEntry struct {
	Node  Node
	Slack uint64
}

// Projection is one what-if: the makespan recomputed with the given
// causes zeroed on every core (per-core total minus the zeroed
// charges, maximum across cores). An Amdahl-style bound: it assumes
// the removed work overlaps perfectly and nothing else re-serializes.
type Projection struct {
	Name     string
	Causes   []profile.Cause
	Makespan uint64
	Speedup  float64 // measured makespan / projected makespan
}

// projections is the standard what-if set, in render order.
var projections = []struct {
	name   string
	causes []profile.Cause
}{
	// The ~1108-cycle serial per-transaction commit-marker flush made
	// asynchronous (the ROADMAP's async data-flush engine).
	{"commit-flush-async", []profile.Cause{profile.CauseCommitMarker}},
	// Infinite write-pending queue: no backpressure stalls.
	{"wpq-infinite", []profile.Cause{profile.CauseWPQStall}},
	// Cross-socket hops zeroed (perfect NUMA locality).
	{"remote-zeroed", []profile.Cause{profile.CauseWPQRemote}},
	// Group-commit window W -> infinity: every per-transaction and
	// per-epoch ordering barrier amortized away.
	{"window-inf", []profile.Cause{profile.CauseLogSync, profile.CauseLogEpoch, profile.CauseCommitMarker}},
}

// HotLine is one cache line's contention record.
type HotLine struct {
	Addr uint64 // line address (64-byte aligned)

	Transfers uint64 // coherence events (snoop/inval/downgrade/writeback)
	PingPong  uint64 // writing-core changes (owner bounced between cores)
	Stalls    uint64 // WPQ backpressure stalls while persisting the line
	SigHits   uint64 // retained-signature hits on the line
	Remote    uint64 // cross-socket accesses
	Stores    uint64 // stores to the line
	Enqueues  uint64 // WPQ entries persisting the line

	StallCycles  uint64 // cycles stalled for WPQ space on the line
	RemoteCycles uint64 // interconnect hop cycles paid for the line
	Residency    uint64 // enqueue-to-drain cycles summed (WPQ residency)
}

// Score is the contention rank: how often the line serialized
// cross-core or device progress.
func (h HotLine) Score() uint64 {
	return h.Transfers + h.PingPong + h.Stalls + h.SigHits + h.Remote
}

// SerCycles is the cycles the line spent serializing progress: WPQ
// backpressure, interconnect hops, and write-queue residency.
func (h HotLine) SerCycles() uint64 {
	return h.StallCycles + h.RemoteCycles + h.Residency
}

// Analysis is the analyzer's result.
type Analysis struct {
	Cores    int
	Start    uint64 // measured-region start cycle (shared core base)
	Makespan uint64 // last charge cycle of the slowest core minus Start

	// PathCycles is the critical path's per-cause breakdown; its sum is
	// the path length, which Check asserts equals Makespan. RawCycles
	// is the profiler's view (charges summed over all cores) for the
	// critical-share-vs-raw-share comparison.
	PathCycles profile.Vector
	RawCycles  profile.Vector
	PathLen    uint64
	Steps      []Step
	Hops       int // cross-core hops on the path
	HopsByEdge [numEdgeKinds]int

	// The explicit DAG's size: its nodes and cross-core wait edges. The
	// DAG feeds the slack pass (the blame walk above is independent of
	// it) and is not kept; SlackTop is what it yields.
	Nodes    int
	Edges    int
	SlackTop []SlackEntry

	WhatIf []Projection

	HotLines   []HotLine // top lines by Score, capped at maxHotLines
	TotalLines int       // distinct lines observed

	Dropped uint64
	perCore []coreTotals
}

// coreTotals is one core's conservation record.
type coreTotals struct {
	core       int
	base, last uint64
	causes     profile.Vector
}

// maxHotLines caps the stored hot-line ranking (the full per-line map
// is reduced at Analyze time; renderers take a further top-N).
const maxHotLines = 64

// maxSlackTop caps the stored slack ranking.
const maxSlackTop = 16

// hintRec is one wait-edge witness: at cycle, the owning core was
// blocked via kind on peer.
type hintRec struct {
	cycle uint64
	peer  uint8
	kind  EdgeKind
}

// lineAgg is the per-line accumulation behind HotLine.
type lineAgg struct {
	HotLine
	pendEnq []uint64 // in-flight enqueue cycles (FIFO), for residency
	writer  uint8
	written bool
}

// Analyzer replays an event stream into the blocking DAG. It is an
// online stream consumer (trace/stream Consumer): feed events in
// emission order — the order both the ring and the binlog preserve —
// then call Analyze once. Not safe for concurrent use.
type Analyzer struct {
	nodes  [256][]Node // a core's region starts at its first node
	totals [256]profile.Vector
	hints  [256][]hintRec

	lines map[uint64]*lineAgg

	lastWriter map[uint64]uint8

	lastDrainCore uint8
	lastDrainSeen bool

	tileErr  error
	causeErr error
}

// New returns an empty analyzer.
func New() *Analyzer {
	return &Analyzer{
		lines:      map[uint64]*lineAgg{},
		lastWriter: map[uint64]uint8{},
	}
}

// Kinds registers the kinds the analyzer consumes: the attribution
// stream, the store/coherence/WPQ/signature streams that witness the
// wait edges and the hot lines.
func (a *Analyzer) Kinds() uint64 {
	return trace.Mask(trace.KCharge,
		trace.KStore, trace.KStoreT,
		trace.KCohSnoop, trace.KCohInval, trace.KCohDowngrade, trace.KCohWriteback,
		trace.KWPQEnqueue, trace.KWPQDrain, trace.KWPQStall, trace.KWPQRemote,
		trace.KSigHit)
}

const lineMask = ^uint64(63)

func (a *Analyzer) line(addr uint64) *lineAgg {
	l := addr & lineMask
	ag, ok := a.lines[l]
	if !ok {
		ag = &lineAgg{HotLine: HotLine{Addr: l}}
		a.lines[l] = ag
	}
	return ag
}

// Consume folds one event into the analyzer.
func (a *Analyzer) Consume(e trace.Event) {
	switch e.Kind {
	case trace.KCharge:
		a.consumeCharge(e)

	case trace.KStore, trace.KStoreT:
		ag := a.line(e.Addr)
		ag.Stores++
		if ag.written && ag.writer != e.Core {
			ag.PingPong++
		}
		ag.writer, ag.written = e.Core, true
		a.lastWriter[e.Addr&lineMask] = e.Core

	case trace.KCohSnoop, trace.KCohInval, trace.KCohDowngrade, trace.KCohWriteback:
		ag := a.line(e.Addr)
		ag.Transfers++
		if peer, ok := a.lastWriter[e.Addr&lineMask]; ok && peer != e.Core {
			a.hints[e.Core] = append(a.hints[e.Core],
				hintRec{cycle: e.Cycle, peer: peer, kind: EdgeCoherence})
		}

	case trace.KWPQEnqueue:
		ag := a.line(e.Addr)
		ag.Enqueues++
		ag.pendEnq = append(ag.pendEnq, e.Cycle)

	case trace.KWPQDrain:
		a.lastDrainCore, a.lastDrainSeen = e.Core, true
		if e.Addr != 0 {
			// Address-stamped drains (satellite of this PR) close the
			// per-line enqueue->drain residency pairing.
			ag := a.line(e.Addr)
			if n := len(ag.pendEnq); n > 0 {
				enq := ag.pendEnq[0]
				ag.pendEnq = ag.pendEnq[1:]
				if e.Cycle > enq {
					ag.Residency += e.Cycle - enq
				}
			}
		}

	case trace.KWPQStall:
		ag := a.line(e.Addr)
		ag.Stalls++
		ag.StallCycles += e.Arg
		// The drain that freed the queue space retired immediately
		// before this event in emission order (the device drains inside
		// the same persist call), so the last drain's core is the peer
		// whose entry was blocking.
		if a.lastDrainSeen && a.lastDrainCore != e.Core {
			a.hints[e.Core] = append(a.hints[e.Core],
				hintRec{cycle: e.Cycle, peer: a.lastDrainCore, kind: EdgeWPQDrain})
		}

	case trace.KWPQRemote:
		ag := a.line(e.Addr)
		ag.Remote++
		ag.RemoteCycles += e.Arg

	case trace.KSigHit:
		ag := a.line(e.Addr)
		ag.SigHits++
		if peer, ok := a.lastWriter[e.Addr&lineMask]; ok && peer != e.Core {
			a.hints[e.Core] = append(a.hints[e.Core],
				hintRec{cycle: e.Cycle, peer: peer, kind: EdgeLazyConflict})
		}
	}
}

// consumeCharge extends the emitting core's node chain. A charge is a
// post-advance record: the segment [Cycle-Arg, Cycle] tiles the core's
// region contiguously; a gap or overlap breaks the contract and is
// reported by Analyze.
func (a *Analyzer) consumeCharge(e trace.Event) {
	c := e.Core
	cause := profile.Cause(e.Addr)
	if cause == profile.CauseNone || cause >= profile.Cause(len(a.totals[c])) {
		if a.causeErr == nil {
			a.causeErr = fmt.Errorf("critpath: charge with unknown cause %d at cycle %d", e.Addr, e.Cycle)
		}
		return
	}
	start := e.Cycle - e.Arg
	a.totals[c][cause] += e.Arg
	ns := a.nodes[c]
	if len(ns) > 0 {
		top := &ns[len(ns)-1]
		if top.End != start && a.tileErr == nil {
			a.tileErr = fmt.Errorf("critpath: core %d charge stream does not tile: segment starts at %d, previous ends at %d",
				c, start, top.End)
		}
		if top.Cause == cause && top.End == start {
			top.End = e.Cycle
			return
		}
	}
	a.nodes[c] = append(ns, Node{Core: int(c), Cause: cause, Start: start, End: e.Cycle})
}

// Analyze computes the critical path, the DAG slack, the what-if
// projections and the hot-line ranking from the consumed stream.
// dropped is the producing tracer's ring-overflow count: a lossy stream
// cannot tile, so it is an error (stream with a spill sink, or shrink
// the run, to keep it complete).
func (a *Analyzer) Analyze(dropped uint64) (*Analysis, error) {
	if dropped > 0 {
		return nil, fmt.Errorf("critpath: trace dropped %d events; the charge stream cannot tile", dropped)
	}
	if a.causeErr != nil {
		return nil, a.causeErr
	}
	if a.tileErr != nil {
		return nil, a.tileErr
	}
	var cores []int
	for c := 0; c < 256; c++ {
		if len(a.nodes[c]) > 0 {
			cores = append(cores, c)
		}
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("critpath: no KCharge events in the stream; run with profiling enabled")
	}

	an := &Analysis{Cores: len(cores), Dropped: dropped}

	// Region bounds. All cores share the measured-region start (the
	// harness syncs clocks at the boundary); the makespan core is the
	// one whose last charge lands latest.
	start, end, m := ^uint64(0), uint64(0), cores[0]
	for _, c := range cores {
		ns := a.nodes[c]
		if b := ns[0].Start; b < start {
			start = b
		}
		if e := ns[len(ns)-1].End; e > end {
			end, m = e, c
		}
		an.perCore = append(an.perCore, coreTotals{
			core: c, base: ns[0].Start, last: ns[len(ns)-1].End, causes: a.totals[c],
		})
		for cause, n := range a.totals[c] {
			an.RawCycles[cause] += n
		}
	}
	an.Start, an.Makespan = start, end-start

	a.walk(an, m, end)
	nodes, edges := a.graph()
	an.Nodes, an.Edges = len(nodes), len(edges)
	an.SlackTop = slackTop(nodes, edges, end)
	a.whatIf(an)
	a.hotLines(an)
	return an, nil
}

// walk runs the backward blame walk from the makespan core's last
// cycle. Each iteration attributes the portion of the current core's
// charge segment below the cursor and moves the cursor to the segment
// start; blocked segments with a resolvable peer hop the walk across
// cores. The per-core tiling makes the attributed total exactly
// end - base regardless of hop choices.
func (a *Analyzer) walk(an *Analysis, m int, end uint64) {
	x, cur := end, m
	for x > a.nodes[cur][0].Start {
		ns := a.nodes[cur]
		// Greatest segment with Start < x; tiling guarantees x <= End.
		i := sort.Search(len(ns), func(i int) bool { return ns[i].Start >= x }) - 1
		if i < 0 {
			break // stream cut below this core's first charge
		}
		seg := ns[i]
		an.PathCycles[seg.Cause] += x - seg.Start
		an.Steps = append(an.Steps, Step{Core: cur, Cause: seg.Cause, Start: seg.Start, End: x, Edge: EdgeProgram})
		x = seg.Start
		if ek, blocked := blockingEdge(seg.Cause); blocked {
			if peer, ok := a.hintPeer(cur, ek, seg.End); ok && peer != cur {
				if a.covers(peer, x) {
					// The path entered the blocked segment along the wait
					// edge from the peer's earlier work.
					an.Steps[len(an.Steps)-1].Edge = ek
					cur = peer
					an.Hops++
					an.HopsByEdge[ek]++
				}
			}
		}
	}
	an.PathLen = end - x
	// Oldest first, like a forward reading of the path.
	for i, j := 0, len(an.Steps)-1; i < j; i, j = i+1, j-1 {
		an.Steps[i], an.Steps[j] = an.Steps[j], an.Steps[i]
	}
}

// hintPeer returns the peer of the latest wait hint of the given kind
// on core c at or before cycle.
func (a *Analyzer) hintPeer(c int, kind EdgeKind, cycle uint64) (int, bool) {
	hs := a.hints[c]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].cycle > cycle {
			continue
		}
		if hs[i].kind == kind {
			return int(hs[i].peer), true
		}
	}
	return 0, false
}

// covers reports whether core c's charge tiling contains cycle x
// (exclusive start: a segment [s, e] covers x when s < x <= e).
func (a *Analyzer) covers(c int, x uint64) bool {
	ns := a.nodes[c]
	if len(ns) == 0 {
		return false
	}
	return ns[0].Start < x && x <= ns[len(ns)-1].End
}

// graph materializes the DAG: the node list flattened core-major
// (sorted by core, then start) and the cross-core wait edges, sorted
// by (To, From, Kind).
func (a *Analyzer) graph() ([]Node, []Edge) {
	// Flatten nodes core-major; remember each core's offset.
	var nodes []Node
	off := map[int]int{}
	for c := 0; c < 256; c++ {
		if len(a.nodes[c]) == 0 {
			continue
		}
		off[c] = len(nodes)
		nodes = append(nodes, a.nodes[c]...)
	}
	// nodeAt finds the index of core c's node containing cycle
	// (exclusive start, like the walk: [Start, End] covers Start < cycle
	// <= End, so a witness event stamped at a segment boundary maps to
	// the segment that ends there).
	nodeAt := func(c int, cycle uint64) (int, bool) {
		ns := a.nodes[c]
		i := sort.Search(len(ns), func(i int) bool { return ns[i].Start >= cycle }) - 1
		if i < 0 || cycle > ns[i].End {
			return 0, false
		}
		return off[c] + i, true
	}
	// lastBefore finds core c's last node ending at or before cycle.
	lastBefore := func(c int, cycle uint64) (int, bool) {
		ns := a.nodes[c]
		i := sort.Search(len(ns), func(i int) bool { return ns[i].End > cycle }) - 1
		if i < 0 {
			return 0, false
		}
		return off[c] + i, true
	}
	var edges []Edge
	seen := map[Edge]struct{}{}
	for c := 0; c < 256; c++ {
		for _, h := range a.hints[c] {
			to, ok := nodeAt(c, h.cycle)
			if !ok {
				continue
			}
			from, ok := lastBefore(int(h.peer), nodes[to].Start)
			if !ok {
				continue
			}
			e := Edge{Kind: h.kind, From: from, To: to}
			if _, dup := seen[e]; dup || from == to {
				continue
			}
			seen[e] = struct{}{}
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].Kind < edges[j].Kind
	})
	return nodes, edges
}

// slackTop runs the CPM slack pass over the DAG and returns the nodes
// with the most slack, capped at maxSlackTop. end is the makespan's
// last cycle.
func slackTop(nodes []Node, edges []Edge, end uint64) []SlackEntry {
	// CPM backward pass for latest-finish times. Program-order edges
	// chain each core; wait edges constrain the source to finish before
	// the target starts (every edge satisfies End(from) <= Start(to), so
	// processing nodes by descending End is reverse-topological).
	lf := make([]uint64, len(nodes))
	for i := range lf {
		lf[i] = end
	}
	relax := func(from, to int) {
		if ls := lf[to] - nodes[to].Dur(); ls < lf[from] {
			lf[from] = ls
		}
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if nodes[order[i]].End != nodes[order[j]].End {
			return nodes[order[i]].End > nodes[order[j]].End
		}
		return order[i] > order[j]
	})
	inEdges := map[int][]Edge{}
	for _, e := range edges {
		inEdges[e.To] = append(inEdges[e.To], e)
	}
	for _, v := range order {
		// Program-order predecessor on the same core.
		if v > 0 && nodes[v-1].Core == nodes[v].Core {
			relax(v-1, v)
		}
		for _, e := range inEdges[v] {
			relax(e.From, v)
		}
	}
	entries := make([]SlackEntry, len(nodes))
	for i, n := range nodes {
		entries[i] = SlackEntry{Node: n, Slack: lf[i] - n.End}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Slack != entries[j].Slack {
			return entries[i].Slack > entries[j].Slack
		}
		if entries[i].Node.Dur() != entries[j].Node.Dur() {
			return entries[i].Node.Dur() > entries[j].Node.Dur()
		}
		if entries[i].Node.Core != entries[j].Node.Core {
			return entries[i].Node.Core < entries[j].Node.Core
		}
		return entries[i].Node.Start < entries[j].Node.Start
	})
	if len(entries) > maxSlackTop {
		entries = entries[:maxSlackTop]
	}
	return entries
}

// whatIf computes the standard projections from the per-core totals.
func (a *Analyzer) whatIf(an *Analysis) {
	for _, p := range projections {
		var projected uint64
		for _, ct := range an.perCore {
			rem := ct.last - ct.base
			for _, cause := range p.causes {
				rem -= ct.causes[cause]
			}
			if rem > projected {
				projected = rem
			}
		}
		sp := 0.0
		if projected > 0 {
			sp = float64(an.Makespan) / float64(projected)
		}
		an.WhatIf = append(an.WhatIf, Projection{
			Name: p.name, Causes: p.causes, Makespan: projected, Speedup: sp,
		})
	}
}

// hotLines reduces the per-line map into the deterministic ranking.
func (a *Analyzer) hotLines(an *Analysis) {
	an.TotalLines = len(a.lines)
	hl := make([]HotLine, 0, len(a.lines))
	for _, ag := range a.lines { //slpmt:determinism-ok: collected entries are sorted below
		if ag.Score() == 0 && ag.SerCycles() == 0 {
			continue
		}
		hl = append(hl, ag.HotLine)
	}
	sort.Slice(hl, func(i, j int) bool {
		if hl[i].Score() != hl[j].Score() {
			return hl[i].Score() > hl[j].Score()
		}
		if hl[i].SerCycles() != hl[j].SerCycles() {
			return hl[i].SerCycles() > hl[j].SerCycles()
		}
		return hl[i].Addr < hl[j].Addr
	})
	if len(hl) > maxHotLines {
		hl = hl[:maxHotLines]
	}
	an.HotLines = hl
}

// Check asserts the conservation-style contract: the critical-path
// length equals the measured makespan, the per-cause path shares sum to
// the path, and every core's charges tile its region exactly.
func (an *Analysis) Check() error {
	if an.PathLen != an.Makespan {
		return fmt.Errorf("critpath: path length %d != makespan %d", an.PathLen, an.Makespan)
	}
	if s := an.PathCycles.Sum(); s != an.PathLen {
		return fmt.Errorf("critpath: per-cause path shares sum to %d, path length %d", s, an.PathLen)
	}
	for _, ct := range an.perCore {
		if got, want := ct.causes.Sum(), ct.last-ct.base; got != want {
			return fmt.Errorf("critpath: core %d charges sum to %d, region spans %d", ct.core, got, want)
		}
	}
	return nil
}

// ByCause returns the critical path's nonzero per-cause cycles keyed by
// canonical cause name — the BENCH json `critical_path_by_cause` object.
func (an *Analysis) ByCause() map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range profile.Causes() {
		if n := an.PathCycles[c]; n != 0 {
			out[c.String()] = n
		}
	}
	return out
}

// Render writes the canonical text report: byte-identical for identical
// streams, whichever source (ring or binlog) carried them. hotN caps
// the hot-line section (<= 0 selects 10).
func (an *Analysis) Render(hotN int) string {
	if hotN <= 0 {
		hotN = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: makespan %d cycles over %d cores, path length %d, %d cross-core hops",
		an.Makespan, an.Cores, an.PathLen, an.Hops)
	if an.Hops > 0 {
		var hs []string
		for k := EdgeKind(0); k < numEdgeKinds; k++ {
			if n := an.HopsByEdge[k]; n > 0 {
				hs = append(hs, fmt.Sprintf("%s=%d", k, n))
			}
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(hs, " "))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "dag: %d nodes, %d wait edges\n", an.Nodes, an.Edges)

	b.WriteString("\ncritical path by cause (critical share vs raw core-cycle share):\n")
	rawTotal := an.RawCycles.Sum()
	for _, name := range sortedCauses(&an.PathCycles) {
		c, _ := profile.ByName(name)
		crit := float64(an.PathCycles[c]) / float64(an.PathLen)
		raw := 0.0
		if rawTotal > 0 {
			raw = float64(an.RawCycles[c]) / float64(rawTotal)
		}
		fmt.Fprintf(&b, "  %-13s %12d  crit %5.1f%%  raw %5.1f%%\n",
			name, an.PathCycles[c], 100*crit, 100*raw)
	}

	b.WriteString("\nslack top (latest finish minus measured finish, per DAG node):\n")
	for _, s := range an.SlackTop {
		fmt.Fprintf(&b, "  core %d %-13s [%d..%d] dur %d slack %d\n",
			s.Node.Core, s.Node.Cause, s.Node.Start, s.Node.End, s.Node.Dur(), s.Slack)
	}

	b.WriteString("\nwhat-if projections (causes zeroed on every core):\n")
	for _, p := range an.WhatIf {
		var cs []string
		for _, c := range p.Causes {
			cs = append(cs, c.String())
		}
		fmt.Fprintf(&b, "  %-18s makespan %12d  speedup %.2fx  (zeroing %s)\n",
			p.Name, p.Makespan, p.Speedup, strings.Join(cs, "+"))
	}

	fmt.Fprintf(&b, "\nhot lines (top %d of %d contended, by contention events):\n", min(hotN, len(an.HotLines)), an.TotalLines)
	fmt.Fprintf(&b, "  %-12s %6s %6s %6s %6s %6s %6s %10s %10s %10s\n",
		"line", "score", "coh", "ppng", "stall", "sig", "rmt", "stall.cyc", "rmt.cyc", "wpq.cyc")
	for i, h := range an.HotLines {
		if i >= hotN {
			break
		}
		fmt.Fprintf(&b, "  %#-12x %6d %6d %6d %6d %6d %6d %10d %10d %10d\n",
			h.Addr, h.Score(), h.Transfers, h.PingPong, h.Stalls, h.SigHits, h.Remote,
			h.StallCycles, h.RemoteCycles, h.Residency)
	}
	return b.String()
}

// sortedCauses returns the vector's nonzero cause names sorted by
// descending cycles (ties by name).
func sortedCauses(v *profile.Vector) []string {
	type kv struct {
		name string
		n    uint64
	}
	var out []kv
	for _, c := range profile.Causes() {
		if n := v[c]; n != 0 {
			out = append(out, kv{c.String(), n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].name < out[j].name
	})
	names := make([]string, len(out))
	for i, e := range out {
		names[i] = e.name
	}
	return names
}
