package trace

import "fmt"

// The Sanitizer replays a trace event stream and checks the paper's §III
// persist-ordering contracts against what the simulator actually did.
// It is the dynamic counterpart to the static slpmtvet passes: the
// analyzers prove properties of the code, the sanitizer proves
// properties of one execution.
//
// Rules checked, per transaction and per core:
//
//  1. log-before-data: a data line with log records may persist (enter
//     the WPQ) only after a log sync whose durable watermark covers
//     every record for that line (Figure 4, both modes: the log entry
//     is durable before the in-place update).
//  2. marker-order: the commit marker is written only after the log
//     sync covering the whole record stream. In undo mode no write-set
//     line may persist after the marker (logs -> data -> marker); in
//     redo mode no logged line may persist before it (data persists
//     follow the marker).
//  3. wpq-fifo: WPQ entries retire in finish-time order (drain cycles
//     are non-decreasing within a drain batch) and every drain matches
//     an outstanding enqueue of the same core, byte for byte.
//  4. lazy-conflict: a store that hits a line left volatile by a
//     retained transaction (§III-C3) must force that transaction's lazy
//     drain to complete before the storing core proceeds.
//  5. epoch-close: under group commit (commit window W > 1) a
//     transaction commits without its own marker; its logged lines
//     join the open epoch. Every such line may persist only once a log
//     sync covers its records (the epoch analog of rule 1), and at the
//     KEpochClose marker every record of the epoch must sit below the
//     durable watermark — the all-or-nothing boundary recovery relies
//     on. A commit that wrote its own marker (W = 1) contributes no
//     epoch state, so per-transaction streams replay exactly as before.
//
// The replay works on emission order, which the single-threaded
// simulator makes deterministic. Violations detected inside a
// transaction that subsequently aborts are discarded: the abort path
// legitimately rewrites logged data outside the commit ordering.
//
// The checker is resilient to a stream that starts mid-run (the bench
// harness starts the stream at the measured-region boundary): WPQ
// residue from before the cut is skipped until the occupancy replay
// locks on, and lazy obligations deferred before the cut are simply
// not checked. The tracer never loses an event, so past the cut the
// replay sees the whole execution.

// sanLineSize mirrors mem.LineSize without importing the package (trace
// is a leaf dependency of the whole simulator).
const sanLineSize = 64

// MaxViolations bounds Report.Violations; Total keeps the full count.
const MaxViolations = 100

// Violation is one persist-ordering breach found by the Sanitizer.
type Violation struct {
	Index  int    // event index in the replayed stream
	Cycle  uint64 // emitting core's cycle at the event
	Core   uint8  // core the violation is attributed to
	Seq    uint64 // transaction sequence when tx-scoped, epoch number for epoch-close, else 0
	Rule   string // "log-before-data", "marker-order", "wpq-fifo", "lazy-conflict", "epoch-close"
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("event %d cycle %d core %d seq %d [%s]: %s",
		v.Index, v.Cycle, v.Core, v.Seq, v.Rule, v.Detail)
}

// Report is the result of one sanitizer replay.
type Report struct {
	Events       int
	Transactions int // committed transactions replayed
	Aborts       int // aborted transactions replayed (violations discarded)
	Total        int // violations found (Violations holds at most MaxViolations)
	Violations   []Violation
}

// Clean reports whether the replay found no violations.
func (r *Report) Clean() bool { return r.Total == 0 }

// sanRetained is one committed transaction whose lazy lines are still
// volatile — an obligation the next conflicting store must see cleared.
type sanRetained struct {
	seq   uint64
	lines []uint64
}

// sanCore is the per-core replay state.
type sanCore struct {
	inTx       bool
	seq        uint64
	commitSeen bool
	lastMode   int // 0 undo, 1 redo, -1 unknown (before the first marker)
	watermark  uint64
	logged     map[uint64]struct{} // lines with log records this tx
	logOff     map[uint64]uint64   // line -> highest record-end stream offset
	storeLines map[uint64]struct{} // lines stored this tx
	txViol     []Violation         // buffered until commit (discarded on abort)

	// Epoch state (rule 5). Populated only by commits that wrote no
	// marker of their own — grouped commits — so it stays empty on
	// per-transaction (W = 1) streams.
	epochLogged map[uint64]struct{} // lines logged by committed-in-window txs
	epochLogOff map[uint64]uint64   // line -> highest record-end offset, epoch scope
	epochWM     uint64              // latest synced watermark (not reset at tx begin)

	defers   []uint64      // lazy lines deferred by the committing tx
	retained []sanRetained // committed txs with volatile lazy data (FIFO)

	pendingLazy []uint64 // lines whose obligations must clear before the next program event
	// Per-socket WPQ replay state (socket 0 is the only key on
	// single-socket streams): outstanding enqueues in FIFO order,
	// and whether the replay has locked on past pre-cut residue.
	wpqFifo   map[int][]wpqEntry
	wpqSynced map[int]bool
}

// wpqEntry is one outstanding enqueue in the occupancy replay: the
// occupancy delta it raised and the persisted cache line. A drain that
// carries a line address (KWPQDrain Addr) must retire an entry of the
// same size and line; a zero drain address (streams predating the
// address stamping) falls back to size-only matching.
type wpqEntry struct {
	bytes uint64
	line  uint64
}

func newSanCore() *sanCore {
	return &sanCore{
		lastMode:    -1,
		logged:      map[uint64]struct{}{},
		logOff:      map[uint64]uint64{},
		storeLines:  map[uint64]struct{}{},
		epochLogged: map[uint64]struct{}{},
		epochLogOff: map[uint64]uint64{},
		wpqFifo:     map[int][]wpqEntry{},
		wpqSynced:   map[int]bool{},
	}
}

// maxRetainedTx bounds each core's retained-transaction list in the
// incremental replay: a stream whose lazy drains never appear (a
// crash-truncated binlog, a mid-run cut) would otherwise grow the
// obligation state without bound. When the cap is hit the oldest
// retained transaction's obligations are released unchecked — the
// replay stays sound for everything it still tracks, and the bound
// keeps a streaming sanitizer O(active state), not O(events). The cap
// is far above what any committed workload retains between drains, so
// bounded and unbounded replays agree on every golden.
const maxRetainedTx = 4096

// Sanitizer is the incremental persist-order checker, stepped one
// event at a time so a spilled-to-disk stream replays with memory
// bounded by the active transaction/WPQ state instead of the event
// count. Feed events oldest-first with Consume, then call Report once.
// It is a stream consumer (internal/trace/stream.Consumer) that
// declares every kind: violations are indexed by position in the full
// stream, so it must see the kinds its rules ignore too for a
// Violation's Index to name the event it was found at.
type Sanitizer struct {
	rep   Report
	n     int // events replayed
	cores map[uint8]*sanCore
	// obligations counts, per line, the retained transactions (across
	// all cores) whose lazy copy of the line is still volatile.
	obligations map[uint64]int
	// occ is the replayed per-socket WPQ occupancy (bytes); a socket is
	// absent before its replay locks on. Each socket's device has its
	// own queue, so the occupancy series replays independently.
	occ           map[int]int64
	prevDrain     bool // previous event was a KWPQDrain (batch tracking)
	prevDrainAt   uint64
	prevDrainSock int
}

// NewSanitizer returns an empty incremental replay.
func NewSanitizer() *Sanitizer {
	return &Sanitizer{
		cores:       map[uint8]*sanCore{},
		obligations: map[uint64]int{},
		occ:         map[int]int64{},
	}
}

// Kinds registers every kind, for the violations' event indexing.
func (s *Sanitizer) Kinds() uint64 { return AllKinds }

// Consume replays one event.
func (s *Sanitizer) Consume(e Event) {
	s.step(s.n, e)
	s.n++
}

// Report finalizes the replay.
func (s *Sanitizer) Report() *Report {
	s.rep.Events = s.n
	return &s.rep
}

func (s *Sanitizer) core(id uint8) *sanCore {
	cs, ok := s.cores[id]
	if !ok {
		cs = newSanCore()
		s.cores[id] = cs
	}
	return cs
}

// violate records a non-transaction-scoped violation.
func (s *Sanitizer) violate(i int, e Event, core uint8, seq uint64, rule, detail string) {
	s.rep.Total++
	if len(s.rep.Violations) < MaxViolations {
		s.rep.Violations = append(s.rep.Violations, Violation{
			Index: i, Cycle: e.Cycle, Core: core, Seq: seq, Rule: rule, Detail: detail,
		})
	}
}

// violateTx buffers a violation against cs's current transaction: it
// reaches the report at commit and is discarded on abort.
func (s *Sanitizer) violateTx(i int, e Event, core uint8, cs *sanCore, rule, detail string) {
	if !cs.inTx {
		s.violate(i, e, core, 0, rule, detail)
		return
	}
	cs.txViol = append(cs.txViol, Violation{
		Index: i, Cycle: e.Cycle, Core: core, Seq: cs.seq, Rule: rule, Detail: detail,
	})
}

// eachLine calls fn for every cache line the [addr, addr+n) range touches.
func eachLine(addr, n uint64, fn func(line uint64)) {
	if n == 0 {
		n = 1
	}
	for l := addr &^ (sanLineSize - 1); l <= (addr+n-1)&^(sanLineSize-1); l += sanLineSize {
		fn(l)
	}
}

// programLevel reports whether the kind marks the emitting core's
// program making progress (as opposed to the persist machinery working
// on its behalf). Lazy-conflict postconditions are checked at these
// points: the forced drain runs synchronously inside the conflicting
// store, so by the core's next program event the obligation must be gone.
func programLevel(k Kind) bool {
	switch k {
	case KTxBegin, KCommitStart, KTxCommit, KTxAbort, KStore, KStoreT, KLogAppend:
		return true
	}
	return false
}

func (s *Sanitizer) step(i int, e Event) {
	cs := s.core(e.Core)

	// Rule 4 postcondition: obligations recorded at this core's previous
	// conflicting store must have been drained by now.
	if len(cs.pendingLazy) > 0 && programLevel(e.Kind) {
		for _, line := range cs.pendingLazy {
			if s.obligations[line] > 0 {
				s.violate(i, e, e.Core, cs.seq, "lazy-conflict",
					fmt.Sprintf("store to line %#x proceeded while a retained transaction's lazy copy is still volatile", line))
			}
		}
		cs.pendingLazy = cs.pendingLazy[:0]
	}

	// Rule 3 batch monotonicity: within one consecutive run of drains,
	// retirement cycles never go backwards (the WPQ pops its queue in
	// finish-time order).
	if e.Kind == KWPQDrain {
		sock := WPQSocket(e.Arg)
		if s.prevDrain && sock == s.prevDrainSock && e.Cycle < s.prevDrainAt {
			s.violate(i, e, e.Core, 0, "wpq-fifo",
				fmt.Sprintf("drain at cycle %d after drain at cycle %d in the same batch", e.Cycle, s.prevDrainAt))
		}
		s.prevDrain, s.prevDrainAt, s.prevDrainSock = true, e.Cycle, sock
	} else {
		s.prevDrain = false
	}

	switch e.Kind {
	case KTxBegin:
		cs.inTx = true
		cs.seq = e.Arg
		cs.commitSeen = false
		cs.watermark = 0
		clear(cs.logged)
		clear(cs.logOff)
		clear(cs.storeLines)
		cs.txViol = cs.txViol[:0]
		cs.defers = cs.defers[:0]

	case KTxCommit:
		s.rep.Transactions++
		if cs.inTx && !cs.commitSeen {
			// No marker of its own: a grouped commit. The transaction's
			// logged lines become the open epoch's obligation (rule 5);
			// they are checked at every subsequent persist and at the
			// epoch-close marker. W = 1 commits always carry a marker,
			// so this branch never runs on per-transaction streams.
			for line := range cs.logged { //slpmt:determinism-ok: set merge is order-independent
				cs.epochLogged[line] = struct{}{}
			}
			for line, off := range cs.logOff { //slpmt:determinism-ok: max-merge is order-independent
				if off > cs.epochLogOff[line] {
					cs.epochLogOff[line] = off
				}
			}
		}
		for _, v := range cs.txViol {
			s.rep.Total++
			if len(s.rep.Violations) < MaxViolations {
				s.rep.Violations = append(s.rep.Violations, v)
			}
		}
		cs.txViol = cs.txViol[:0]
		if len(cs.defers) > 0 {
			lines := make([]uint64, len(cs.defers))
			copy(lines, cs.defers)
			for _, l := range lines {
				s.obligations[l]++
			}
			cs.retained = append(cs.retained, sanRetained{seq: cs.seq, lines: lines})
			if len(cs.retained) > maxRetainedTx {
				// Bounded retired-tx state: release the oldest
				// obligations unchecked (see maxRetainedTx).
				for _, l := range cs.retained[0].lines {
					if s.obligations[l] > 0 {
						s.obligations[l]--
					}
				}
				cs.retained = append(cs.retained[:0], cs.retained[1:]...)
			}
			cs.defers = cs.defers[:0]
		}
		cs.inTx = false

	case KTxAbort:
		s.rep.Aborts++
		cs.txViol = cs.txViol[:0]
		cs.defers = cs.defers[:0]
		cs.inTx = false

	case KStore, KStoreT:
		eachLine(e.Addr, e.Arg, func(line uint64) {
			if cs.inTx {
				cs.storeLines[line] = struct{}{}
			}
			if s.obligations[line] > 0 {
				cs.pendingLazy = append(cs.pendingLazy, line)
			}
		})

	case KLogAppend:
		if cs.inTx {
			cs.logged[e.Addr&^(sanLineSize-1)] = struct{}{}
		}

	case KLogPersist:
		line := e.Addr &^ (sanLineSize - 1)
		if cs.inTx && e.Arg > cs.logOff[line] {
			cs.logOff[line] = e.Arg
		}
		// Epoch scope tracks every record write, in or out of a
		// transaction: spilled records of an already-committed window
		// transaction reach the device during the next Begin, and the
		// epoch-close drain runs after KTxCommit. Only consulted for
		// lines in epochLogged, so W = 1 replay is unaffected.
		if e.Arg > cs.epochLogOff[line] {
			cs.epochLogOff[line] = e.Arg
		}

	case KLogSync:
		if e.Arg > cs.watermark {
			cs.watermark = e.Arg
		}
		// Latest-wins, not max: the stream offset space restarts when
		// the log region is reset between epochs, so the most recent
		// sync is the durable frontier of the current generation.
		cs.epochWM = e.Arg

	case KCommitMarker:
		cs.lastMode = int(e.Addr)
		if cs.inTx {
			for line, off := range cs.logOff { //slpmt:determinism-ok: violation set is order-independent (replay tool)
				if off > cs.watermark {
					s.violateTx(i, e, e.Core, cs,
						"marker-order",
						fmt.Sprintf("commit marker written with log records for line %#x beyond the durable watermark (%d > %d)", line, off, cs.watermark))
				}
			}
			cs.commitSeen = true
		}

	case KEpochClose:
		// The epoch's all-or-nothing boundary: every record a grouped
		// commit contributed must be durable (below the latest synced
		// watermark) when the close marker lands — otherwise recovery
		// could tear the epoch it believes committed.
		for line := range cs.epochLogged { //slpmt:determinism-ok: violation set is order-independent (replay tool)
			if off := cs.epochLogOff[line]; off > cs.epochWM {
				s.violate(i, e, e.Core, e.Arg, "epoch-close",
					fmt.Sprintf("epoch %d closed with log records for line %#x beyond the durable watermark (%d > %d)", e.Arg, line, off, cs.epochWM))
			}
		}
		clear(cs.epochLogged)
		clear(cs.epochLogOff)

	case KLazyDefer:
		if cs.inTx {
			cs.defers = append(cs.defers, e.Addr)
		}

	case KLazyDrainEnd:
		n := int(e.Arg)
		if n < 0 || n > len(cs.retained) {
			n = len(cs.retained) // stream cut mid-run (or corrupt arg): obligations before the cut are unknown
		}
		for _, r := range cs.retained[:n] {
			for _, l := range r.lines {
				if s.obligations[l] > 0 {
					s.obligations[l]--
				}
			}
		}
		cs.retained = append(cs.retained[:0], cs.retained[n:]...)

	case KWPQEnqueue:
		s.replayEnqueue(i, e, cs)
	case KWPQDrain:
		s.replayDrain(i, e)
	}
}

// replayEnqueue applies one WPQ enqueue to the occupancy replay and
// runs the persist-side ordering rules (1 and 2) for the entering line.
func (s *Sanitizer) replayEnqueue(i int, e Event, cs *sanCore) {
	line := e.Addr &^ (sanLineSize - 1)

	// Rule 1: a logged data line may enter the WPQ only once the owning
	// transaction's log records for it sit below the durable watermark.
	// The line may be logged by any core's transaction (shared lines
	// reach the device through whichever core evicts them).
	for _, oc := range s.cores { //slpmt:determinism-ok: violation buffers are per-core; order does not affect the report
		if oc.inTx {
			if _, ok := oc.logged[line]; ok {
				if off := oc.logOff[line]; off > oc.watermark {
					s.violateTx(i, e, e.Core, oc, "log-before-data",
						fmt.Sprintf("line %#x persisted with log records beyond the durable watermark (%d > %d)", line, off, oc.watermark))
				}
			}
		}
		// Rule 5 half of rule 1: a line logged by a committed-in-window
		// transaction (epoch still open, no marker yet) must likewise
		// have its records synced before the data reaches the WPQ.
		if _, ok := oc.epochLogged[line]; ok {
			if off := oc.epochLogOff[line]; off > oc.epochWM {
				s.violate(i, e, e.Core, 0, "epoch-close",
					fmt.Sprintf("line %#x persisted with open-epoch log records beyond the durable watermark (%d > %d)", line, off, oc.epochWM))
			}
		}
	}

	// Rule 2, mode-specific halves, for the enqueuing core's own
	// transaction (the commit engine runs on the owning core).
	if cs.inTx {
		if cs.commitSeen && cs.lastMode == 0 {
			if _, ok := cs.storeLines[line]; ok {
				s.violateTx(i, e, e.Core, cs, "marker-order",
					fmt.Sprintf("undo commit: write-set line %#x persisted after the commit marker", line))
			}
		}
		if !cs.commitSeen && cs.lastMode == 1 {
			if _, ok := cs.logged[line]; ok {
				s.violateTx(i, e, e.Core, cs, "marker-order",
					fmt.Sprintf("redo commit: logged line %#x persisted before the commit marker", line))
			}
		}
	}

	// Rule 3 occupancy replay, per socket. The first observed event of a
	// socket sets its baseline (the stream may start with entries
	// already queued), so a first enqueue's size is unknown. Its drain
	// still follows, so it waits in the FIFO as a sizeless entry that an
	// address-stamped drain of its line retires.
	sock := WPQSocket(e.Arg)
	occ := int64(WPQOcc(e.Arg))
	prev, seen := s.occ[sock]
	s.occ[sock] = occ
	if !seen {
		cs.wpqFifo[sock] = append(cs.wpqFifo[sock], wpqEntry{line: line})
		return
	}
	delta := occ - prev
	if delta <= 0 {
		s.violate(i, e, e.Core, 0, "wpq-fifo",
			fmt.Sprintf("enqueue did not raise WPQ occupancy (%d -> %d)", prev, occ))
		return
	}
	cs.wpqFifo[sock] = append(cs.wpqFifo[sock], wpqEntry{bytes: uint64(delta), line: line})
}

// replayDrain applies one WPQ drain to the occupancy replay and matches
// it against the draining core's outstanding enqueues.
func (s *Sanitizer) replayDrain(i int, e Event) {
	cs := s.core(e.Core)
	sock := WPQSocket(e.Arg)
	occ := int64(WPQOcc(e.Arg))
	prev, seen := s.occ[sock]
	s.occ[sock] = occ
	if !seen {
		return
	}
	delta := prev - occ
	if delta <= 0 {
		s.violate(i, e, e.Core, 0, "wpq-fifo",
			fmt.Sprintf("drain did not lower WPQ occupancy (%d -> %d)", prev, occ))
		return
	}
	fifo := cs.wpqFifo[sock]
	if len(fifo) == 0 {
		return // residue enqueued before the stream cut
	}
	// Match in FIFO order; the device's bank model can legitimately
	// retire same-core entries slightly out of enqueue order, so fall
	// back to the first match before declaring a violation. An
	// address-stamped drain must retire an entry of the same size AND
	// line; unstamped drains (Addr 0) match on size alone.
	dline := e.Addr &^ (sanLineSize - 1)
	match := func(en wpqEntry) bool {
		if en.bytes == 0 { // a socket's first enqueue, of unknown size
			return e.Addr != 0 && en.line == dline
		}
		return en.bytes == uint64(delta) && (e.Addr == 0 || en.line == dline)
	}
	for j := 0; j < len(fifo); j++ {
		if match(fifo[j]) {
			cs.wpqFifo[sock] = append(fifo[:j], fifo[j+1:]...)
			cs.wpqSynced[sock] = true
			return
		}
	}
	if !cs.wpqSynced[sock] {
		return // still skipping pre-cut residue for this core
	}
	s.violate(i, e, e.Core, 0, "wpq-fifo",
		fmt.Sprintf("drained %d bytes with no matching outstanding enqueue on core %d", delta, e.Core))
}
