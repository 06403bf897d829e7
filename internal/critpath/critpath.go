// Package critpath is the causal critical-path analyzer: it replays a
// run's event stream (the Analyzer is an online stream consumer, fed a
// run's tracer spills live or a saved binlog offline) into a cross-core
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
	"cmp"
	"fmt"
	"slices"
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
// segments on one core, [Start, End) in absolute cycles. The analyzer
// stores a node as one word of its core's tiling and builds a Node
// only for the slack ranking.
type Node struct {
	Core  int
	Cause profile.Cause
	Start uint64
	End   uint64
}

// Dur returns the node's duration in cycles.
func (n Node) Dur() uint64 { return n.End - n.Start }

// Edge is one cross-core waits-for DAG edge into a core's node list:
// node From of core FromCore finishes before that core's node To
// starts. Program-order edges are implicit per core and not
// materialized.
type Edge struct {
	Kind     EdgeKind
	FromCore int
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
	// slack pass runs over the analyzer's per-core node lists (the blame
	// walk above is independent of it); SlackTop is what it yields.
	Nodes    int
	Edges    int
	SlackTop []SlackEntry

	WhatIf []Projection

	HotLines   []HotLine // top lines by Score, capped at MaxHotLines
	TotalLines int       // distinct lines observed

	perCore []coreTotals
}

// coreTotals is one core's conservation record.
type coreTotals struct {
	core       int
	base, last uint64
	causes     profile.Vector
}

// MaxHotLines caps the stored hot-line ranking (the full per-line map
// is reduced at Analyze time; renderers take a further top-N).
const MaxHotLines = 64

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
// emission order — the order both the live spills and the binlog
// preserve — then call Analyze once. Not safe for concurrent use.
type Analyzer struct {
	segs   [256]tiling
	totals [256]profile.Vector
	hints  [256][]hintRec // per core, in cycle order

	lines map[uint64]*lineAgg

	lastDrainCore uint8
	lastDrainSeen bool

	err error // the first broken stream contract, reported by Analyze
}

// tiling is one core's charge segments: the DAG nodes of that core.
// The region's first cycle is base, and each segment is one word, its
// end cycle with its cause in the top byte. A segment starts where the
// previous one ends, and its core is the tiling it sits in, so neither
// is stored.
type tiling struct {
	base  uint64
	words []uint64
}

// causeShift places a segment's cause above its end cycle; maxCycle is
// the largest end cycle the word holds.
const (
	causeShift = 56
	maxCycle   = 1<<causeShift - 1
)

func (t *tiling) end(i int) uint64          { return t.words[i] & maxCycle }
func (t *tiling) cause(i int) profile.Cause { return profile.Cause(t.words[i] >> causeShift) }
func (t *tiling) last() uint64              { return t.end(len(t.words) - 1) }

func (t *tiling) start(i int) uint64 {
	if i == 0 {
		return t.base
	}
	return t.end(i - 1)
}

// node builds segment i of core c as a Node.
func (t *tiling) node(c, i int) Node {
	return Node{Core: c, Cause: t.cause(i), Start: t.start(i), End: t.end(i)}
}

// find returns the greatest segment that starts before x, or -1.
func (t *tiling) find(x uint64) int {
	return sort.Search(len(t.words), func(i int) bool { return t.start(i) >= x }) - 1
}

// New returns an empty analyzer.
func New() *Analyzer {
	return &Analyzer{lines: map[uint64]*lineAgg{}}
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

	case trace.KCohSnoop, trace.KCohInval, trace.KCohDowngrade, trace.KCohWriteback:
		ag := a.line(e.Addr)
		ag.Transfers++
		if ag.written && ag.writer != e.Core {
			a.hint(e, ag.writer, EdgeCoherence)
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
			a.hint(e, a.lastDrainCore, EdgeWPQDrain)
		}

	case trace.KWPQRemote:
		ag := a.line(e.Addr)
		ag.Remote++
		ag.RemoteCycles += e.Arg

	case trace.KSigHit:
		ag := a.line(e.Addr)
		ag.SigHits++
		if ag.written && ag.writer != e.Core {
			a.hint(e, ag.writer, EdgeLazyConflict)
		}
	}
}

// fail records err unless an earlier contract break is already held.
func (a *Analyzer) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// hint records that e's core was blocked via kind on peer at e's cycle.
// A core's clock never runs backwards, so its hints arrive in cycle
// order (hintPeer and waitEdges binary-search them); one that does not
// breaks the stream's contract like a gap in the charge tiling.
func (a *Analyzer) hint(e trace.Event, peer uint8, kind EdgeKind) {
	hs := a.hints[e.Core]
	if n := len(hs); n > 0 && hs[n-1].cycle > e.Cycle {
		a.fail(fmt.Errorf("critpath: core %d wait hint at cycle %d follows one at %d", e.Core, e.Cycle, hs[n-1].cycle))
	}
	a.hints[e.Core] = append(hs, hintRec{cycle: e.Cycle, peer: peer, kind: kind})
}

// consumeCharge extends the emitting core's tiling. A charge is a
// post-advance record: the segment [Cycle-Arg, Cycle] tiles the core's
// region contiguously; a gap or overlap breaks the contract and is
// reported by Analyze, as is a cycle too large for a segment word.
func (a *Analyzer) consumeCharge(e trace.Event) {
	c := e.Core
	cause := profile.Cause(e.Addr)
	if cause == profile.CauseNone || cause >= profile.Cause(len(a.totals[c])) {
		a.fail(fmt.Errorf("critpath: charge with unknown cause %d at cycle %d", e.Addr, e.Cycle))
		return
	}
	if e.Cycle > maxCycle {
		a.fail(fmt.Errorf("critpath: core %d charge at cycle %d exceeds %d", c, e.Cycle, uint64(maxCycle)))
		return
	}
	start := e.Cycle - e.Arg
	a.totals[c][cause] += e.Arg
	t := &a.segs[c]
	word := uint64(cause)<<causeShift | e.Cycle
	if n := len(t.words); n == 0 {
		t.base = start
	} else if end := t.end(n - 1); end != start {
		a.fail(fmt.Errorf("critpath: core %d charge stream does not tile: segment starts at %d, previous ends at %d",
			c, start, end))
	} else if t.cause(n-1) == cause {
		t.words[n-1] = word
		return
	}
	t.words = append(t.words, word)
}

// Analyze computes the critical path, the DAG slack, the what-if
// projections and the hot-line ranking from the consumed stream.
func (a *Analyzer) Analyze() (*Analysis, error) {
	if a.err != nil {
		return nil, a.err
	}
	var cores []int
	for c := 0; c < 256; c++ {
		if len(a.segs[c].words) > 0 {
			cores = append(cores, c)
		}
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("critpath: no KCharge events in the stream; run with profiling enabled")
	}

	an := &Analysis{Cores: len(cores)}

	// Region bounds. All cores share the measured-region start (the
	// harness syncs clocks at the boundary); the makespan core is the
	// one whose last charge lands latest.
	start, end, m := ^uint64(0), uint64(0), cores[0]
	for _, c := range cores {
		t := &a.segs[c]
		if t.base < start {
			start = t.base
		}
		if e := t.last(); e > end {
			end, m = e, c
		}
		an.perCore = append(an.perCore, coreTotals{
			core: c, base: t.base, last: t.last(), causes: a.totals[c],
		})
		for cause, n := range a.totals[c] {
			an.RawCycles[cause] += n
		}
	}
	an.Start, an.Makespan = start, end-start

	a.walk(an, m, end)
	a.slack(an, cores, end)
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
	for x > a.segs[cur].base {
		t := &a.segs[cur]
		// Greatest segment with start < x; tiling guarantees x <= end.
		i := t.find(x)
		if i < 0 {
			break // stream cut below this core's first charge
		}
		seg := t.node(cur, i)
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
	i := sort.Search(len(hs), func(i int) bool { return hs[i].cycle > cycle })
	for i--; i >= 0; i-- {
		if hs[i].kind == kind {
			return int(hs[i].peer), true
		}
	}
	return 0, false
}

// covers reports whether core c's charge tiling contains cycle x
// (exclusive start: a segment [s, e] covers x when s < x <= e).
func (a *Analyzer) covers(c int, x uint64) bool {
	t := &a.segs[c]
	return len(t.words) > 0 && t.base < x && x <= t.last()
}

// waitEdges returns the cross-core wait edges into core c's nodes,
// built from its hints in cycle order (so by ascending To) and
// deduplicated per target node. A hint's target is the node containing
// its cycle (exclusive start, like the walk: [Start, End] covers
// Start < cycle <= End, so a witness stamped at a segment boundary maps
// to the segment that ends there); its source is the peer's last node
// ending at or before the target starts.
func (a *Analyzer) waitEdges(c int) []Edge {
	t := &a.segs[c]
	var out []Edge
	group := 0 // the first edge into out's last target node
	for _, h := range a.hints[c] {
		to := t.find(h.cycle)
		if to < 0 || h.cycle > t.end(to) {
			continue
		}
		ps, start := &a.segs[h.peer], t.start(to)
		from := sort.Search(len(ps.words), func(i int) bool { return ps.end(i) > start }) - 1
		if from < 0 {
			continue
		}
		e := Edge{Kind: h.kind, FromCore: int(h.peer), From: from, To: to}
		if n := len(out); n > 0 && out[n-1].To != to {
			group = n
		}
		if !slices.Contains(out[group:], e) {
			out = append(out, e)
		}
	}
	return out
}

// slack runs the CPM backward pass for latest-finish times over the
// per-core node lists and fills the DAG's counts and SlackTop. end is
// the makespan's last cycle. Program order chains each core; a wait edge
// constrains its source to finish before its target starts (every edge
// has End(from) <= Start(to)), so visiting nodes by descending End is
// reverse-topological. The visit merges the core lists from their
// tails, ties going to the higher core, then the later node.
func (a *Analyzer) slack(an *Analysis, cores []int, end uint64) {
	var (
		lf         [256][]uint64 // latest finish, per core and node
		in         [256][]Edge
		next, edge [256]int // per core: the next node and in-edge to visit
	)
	for _, c := range cores {
		n := len(a.segs[c].words)
		lf[c] = make([]uint64, n)
		for i := range lf[c] {
			lf[c][i] = end
		}
		in[c] = a.waitEdges(c)
		next[c], edge[c] = n-1, len(in[c])-1
		an.Nodes += n
		an.Edges += len(in[c])
	}
	for {
		c := -1
		for _, d := range cores {
			if next[d] >= 0 && (c < 0 || a.segs[d].end(next[d]) >= a.segs[c].end(next[c])) {
				c = d
			}
		}
		if c < 0 {
			break
		}
		v := next[c]
		next[c]--
		t := &a.segs[c]
		ls := lf[c][v] - (t.end(v) - t.start(v))
		if v > 0 {
			lf[c][v-1] = min(lf[c][v-1], ls)
		}
		for ; edge[c] >= 0 && in[c][edge[c]].To == v; edge[c]-- {
			e := in[c][edge[c]]
			lf[e.FromCore][e.From] = min(lf[e.FromCore][e.From], ls)
		}
	}
	an.SlackTop = make([]SlackEntry, 0, maxSlackTop)
	for _, c := range cores {
		t := &a.segs[c]
		for i := range t.words {
			an.SlackTop = keepTop(an.SlackTop, SlackEntry{Node: t.node(c, i), Slack: lf[c][i] - t.end(i)}, compareSlack)
		}
	}
}

// compareSlack orders SlackTop: most slack first, then the longer node,
// the lower core and the earlier start.
func compareSlack(s, t SlackEntry) int {
	return cmp.Or(cmp.Compare(t.Slack, s.Slack), cmp.Compare(t.Node.Dur(), s.Node.Dur()),
		cmp.Compare(s.Node.Core, t.Node.Core), cmp.Compare(s.Node.Start, t.Node.Start))
}

// keepTop inserts x into top, which is sorted by cmp and holds at most
// cap(top) entries, dropping the last one when full. With cmp a total
// order, top ends as the sorted prefix of everything offered, in
// whatever order it was offered.
func keepTop[T any](top []T, x T, cmp func(T, T) int) []T {
	if len(top) == cap(top) {
		if cmp(x, top[len(top)-1]) >= 0 {
			return top
		}
		top = top[:len(top)-1]
	}
	i, _ := slices.BinarySearchFunc(top, x, cmp)
	return slices.Insert(top, i, x)
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

// hotLines reduces the per-line map into the deterministic ranking:
// highest Score first, then most SerCycles, then the lower address.
func (a *Analyzer) hotLines(an *Analysis) {
	an.TotalLines = len(a.lines)
	an.HotLines = make([]HotLine, 0, MaxHotLines)
	for _, ag := range a.lines { //slpmt:determinism-ok: keepTop's order is total (addresses are unique)
		if ag.Score() == 0 && ag.SerCycles() == 0 {
			continue
		}
		an.HotLines = keepTop(an.HotLines, ag.HotLine, func(h, g HotLine) int {
			return cmp.Or(cmp.Compare(g.Score(), h.Score()), cmp.Compare(g.SerCycles(), h.SerCycles()),
				cmp.Compare(h.Addr, g.Addr))
		})
	}
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
// streams, whichever source (live spills or binlog) carried them. hotN
// caps the hot-line section.
func (an *Analysis) Render(hotN int) string {
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
