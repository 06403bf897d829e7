// Package profile is the cycle-attribution layer: every cycle a
// simulated core's clock advances is charged to exactly one Cause, so a
// run's total cycles decompose into exhaustive, non-overlapping buckets
// (the per-mechanism overhead attribution of the paper's §VI
// evaluation). The machine layer calls Add at every clock-advance site;
// the bench harness snapshots the counts into a Breakdown whose
// Conserved check asserts sum(causes) == total cycles per core.
//
// Attribution is observation-only: attaching a Profile changes no
// simulated timing, no counters, and no trace events other than the
// KCharge attribution stream itself.
package profile

import (
	"fmt"
	"io"
	"sort"

	"github.com/persistmem/slpmt/internal/trace"
)

// Cause identifies where a charged cycle went. CauseNone is the "no
// attribution context" sentinel used by the machine layer; it is never
// charged.
type Cause uint8

const (
	CauseNone Cause = iota

	// CauseCompute is workload computation (Tick), the non-memory
	// residue of every operation.
	CauseCompute
	// CauseL1Hit .. CausePMRead are cache-walk service latencies, one
	// bucket per level probed (a miss at a level charges that level's
	// probe latency to its miss bucket; the serving level charges its
	// hit bucket or, for PM, the device read latency).
	CauseL1Hit
	CauseL1Miss
	CauseL2Hit
	CauseL2Miss
	CauseLLCHit
	CauseLLCMiss
	CausePMRead
	// CauseCoherence is cross-core protocol service: snoop round-trips,
	// upgrade invalidations, and dirty remote writebacks.
	CauseCoherence
	// CauseLogAppend is log-record creation at store time, including
	// buffer spills forced while appending.
	CauseLogAppend
	// CauseLogPersist is draining buffered log records to PM (commit
	// stage 1, context switches, and header/tail line writes).
	CauseLogPersist
	// CauseLogSync is the ordering barrier after a log drain: waiting
	// for streamed lines to complete plus the device acknowledgement.
	CauseLogSync
	// CauseCommitMarker is persisting the committed state in the log
	// header.
	CauseCommitMarker
	// CauseCommitData is persisting marked data lines at commit (the
	// serialized commit scan lazy persistency takes transactions off).
	CauseCommitData
	// CauseLazyDrain is deferred persistence of retained transactions'
	// lazy lines (ID recycling, signature hits, final drain).
	CauseLazyDrain
	// CauseWPQEnqueue is the enqueue cost of posted persists issued with
	// no more specific attribution context (e.g. natural writebacks).
	CauseWPQEnqueue
	// CauseWPQStall is time stalled for WPQ space — backpressure from a
	// full write-pending queue, charged separately even when a more
	// specific context is active so saturation stays first-class.
	CauseWPQStall
	// CausePersistSync is the synchronous remainder (service + ack) of
	// uncontexted blocking persists, e.g. abort-path data restores.
	CausePersistSync
	// CauseLogEpoch is the ordering barrier at a group-commit epoch
	// close: the one amortized log sync that replaces the per-
	// transaction CauseLogSync barriers when the commit window exceeds
	// one transaction.
	CauseLogEpoch
	// CauseWPQRemote is cross-socket interconnect time on a multi-socket
	// PM topology: the hop distance a persist into (or a demand fill
	// from) a remote socket's device pays before the device's own
	// latency. Always zero on a single-socket machine.
	CauseWPQRemote
	// CauseAllocArena is time in the sharded per-core heap allocator
	// (txheap.NewSharded). The classic shared heap charges plain
	// CauseCompute; the sharded allocator charges here so arena
	// management stays visible in NUMA breakdowns.
	CauseAllocArena

	numCauses
)

// causeNames maps causes to their canonical dotted names (report keys,
// folded-stack frames). Every cause must have an entry; slpmtvet
// enforces this statically.
var causeNames = [numCauses]string{
	CauseNone:         "none",
	CauseCompute:      "compute",
	CauseL1Hit:        "l1.hit",
	CauseL1Miss:       "l1.miss",
	CauseL2Hit:        "l2.hit",
	CauseL2Miss:       "l2.miss",
	CauseLLCHit:       "llc.hit",
	CauseLLCMiss:      "llc.miss",
	CausePMRead:       "pm.read",
	CauseCoherence:    "coherence",
	CauseLogAppend:    "log.append",
	CauseLogPersist:   "log.persist",
	CauseLogSync:      "log.sync",
	CauseCommitMarker: "commit.marker",
	CauseCommitData:   "commit.data",
	CauseLazyDrain:    "lazy.drain",
	CauseWPQEnqueue:   "wpq.enqueue",
	CauseWPQStall:     "wpq.stall",
	CausePersistSync:  "persist.sync",
	CauseLogEpoch:     "log.epoch",
	CauseWPQRemote:    "wpq.remote",
	CauseAllocArena:   "alloc.arena",
}

// causeGroups maps causes to coarse report groups (breakdown-table
// columns and flamegraph top frames).
var causeGroups = [numCauses]string{
	CauseNone:         "none",
	CauseCompute:      "compute",
	CauseL1Hit:        "cache",
	CauseL1Miss:       "cache",
	CauseL2Hit:        "cache",
	CauseL2Miss:       "cache",
	CauseLLCHit:       "cache",
	CauseLLCMiss:      "cache",
	CausePMRead:       "cache",
	CauseCoherence:    "coherence",
	CauseLogAppend:    "log",
	CauseLogPersist:   "log",
	CauseLogSync:      "log",
	CauseCommitMarker: "commit",
	CauseCommitData:   "commit",
	CauseLazyDrain:    "lazy",
	CauseWPQEnqueue:   "wpq",
	CauseWPQStall:     "wpq",
	CausePersistSync:  "wpq",
	CauseLogEpoch:     "log",
	CauseWPQRemote:    "wpq",
	CauseAllocArena:   "compute",
}

// causeKinds ties every cause to the trace kinds that witness it in the
// event stream: KCharge carries the attribution itself, and the
// semantic kinds listed here mark the activity being charged. slpmtvet
// requires a non-empty entry per cause, so a cause cannot be added
// without declaring how it shows up in a trace.
var causeKinds = [numCauses][]trace.Kind{
	CauseNone:         {trace.KNone},
	CauseCompute:      {trace.KCharge},
	CauseL1Hit:        {trace.KCharge},
	CauseL1Miss:       {trace.KCacheMiss},
	CauseL2Hit:        {trace.KCacheMiss},
	CauseL2Miss:       {trace.KCacheMiss},
	CauseLLCHit:       {trace.KCacheMiss},
	CauseLLCMiss:      {trace.KCacheMiss},
	CausePMRead:       {trace.KCacheMiss},
	CauseCoherence:    {trace.KCohSnoop, trace.KCohInval, trace.KCohDowngrade, trace.KCohWriteback},
	CauseLogAppend:    {trace.KLogAppend},
	CauseLogPersist:   {trace.KLogPersist},
	CauseLogSync:      {trace.KLogSync},
	CauseCommitMarker: {trace.KCommitMarker},
	CauseCommitData:   {trace.KCommitStart, trace.KTxCommit},
	CauseLazyDrain:    {trace.KLazyDrainStart, trace.KLazyDrainEnd},
	CauseWPQEnqueue:   {trace.KWPQEnqueue},
	CauseWPQStall:     {trace.KWPQStall},
	CausePersistSync:  {trace.KWPQDrain},
	CauseLogEpoch:     {trace.KEpochClose},
	CauseWPQRemote:    {trace.KWPQRemote},
	CauseAllocArena:   {trace.KCharge},
}

// String returns the canonical dotted name.
func (c Cause) String() string {
	if c < numCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Group returns the coarse report group the cause belongs to.
func (c Cause) Group() string {
	if c < numCauses {
		return causeGroups[c]
	}
	return "none"
}

// Kinds returns the trace kinds witnessing the cause.
func (c Cause) Kinds() []trace.Kind {
	if c < numCauses {
		return causeKinds[c]
	}
	return nil
}

// Causes returns every chargeable cause (CauseNone excluded), in enum
// order.
func Causes() []Cause {
	out := make([]Cause, 0, numCauses-1)
	for c := CauseNone + 1; c < numCauses; c++ {
		out = append(out, c)
	}
	return out
}

// Groups returns the canonical report-group order.
func Groups() []string {
	return []string{"compute", "cache", "coherence", "log", "commit", "lazy", "wpq"}
}

// ByName resolves a canonical dotted name to its cause.
func ByName(name string) (Cause, bool) {
	for c := CauseNone + 1; c < numCauses; c++ {
		if causeNames[c] == name {
			return c, true
		}
	}
	return CauseNone, false
}

// Vector is a per-cause cycle count.
type Vector [numCauses]uint64

// Sum returns the total cycles across all causes.
func (v *Vector) Sum() uint64 {
	var s uint64
	for _, n := range v {
		s += n
	}
	return s
}

// Profile accumulates charged cycles per core and cause. The machine
// hot path calls Add at every clock advance, so it is allocation-free;
// it is not safe for concurrent use (each run owns one machine and one
// profile).
type Profile struct {
	counts []Vector
}

// New returns a profile with one accumulator per core.
func New(cores int) *Profile {
	if cores < 1 {
		cores = 1
	}
	return &Profile{counts: make([]Vector, cores)}
}

// Cores returns the number of per-core accumulators.
func (p *Profile) Cores() int { return len(p.counts) }

// Add charges n cycles on the given core to cause.
//
//slpmt:noalloc
func (p *Profile) Add(core int, cause Cause, n uint64) {
	p.counts[core][cause] += n
}

// Reset zeroes every accumulator (measured-region start).
func (p *Profile) Reset() {
	for i := range p.counts {
		p.counts[i] = Vector{}
	}
}

// CoreBreakdown is one core's attribution against its clock total.
type CoreBreakdown struct {
	// Core is the core index.
	Core int
	// Total is the core's clock advance over the measured region.
	Total uint64
	// Causes holds the charged cycles per cause.
	Causes Vector
}

// Breakdown is an immutable snapshot of a profile against per-core
// clock totals, taken at the measured region's end (before any
// verification phase advances the clocks further).
type Breakdown struct {
	// Cores holds one entry per simulated core, in core order.
	Cores []CoreBreakdown
}

// Breakdown snapshots the profile against totals[i] = core i's clock
// advance. len(totals) must equal the profile's core count.
func (p *Profile) Breakdown(totals []uint64) *Breakdown {
	if len(totals) != len(p.counts) {
		panic(fmt.Sprintf("profile: %d totals for %d cores", len(totals), len(p.counts)))
	}
	b := &Breakdown{Cores: make([]CoreBreakdown, len(totals))}
	for i, t := range totals {
		b.Cores[i] = CoreBreakdown{Core: i, Total: t, Causes: p.counts[i]}
	}
	return b
}

// Conserved checks the attribution invariant: on every core the charged
// cycles sum exactly to the core's clock total — no unexplained residue
// and no double charge.
func (b *Breakdown) Conserved() error {
	for i := range b.Cores {
		c := &b.Cores[i]
		if got := c.Causes.Sum(); got != c.Total {
			return fmt.Errorf("profile: core %d attribution not conserved: sum(causes)=%d, total=%d (residue %+d)",
				c.Core, got, c.Total, int64(c.Total)-int64(got))
		}
		if c.Causes[CauseNone] != 0 {
			return fmt.Errorf("profile: core %d charged %d cycles to the none sentinel", c.Core, c.Causes[CauseNone])
		}
	}
	return nil
}

// Merged returns the cause vector summed across cores.
func (b *Breakdown) Merged() Vector {
	var v Vector
	for i := range b.Cores {
		for c, n := range b.Cores[i].Causes {
			v[c] += n
		}
	}
	return v
}

// TotalCycles returns the per-core totals summed (the denominator for
// share-of-cycles figures; on multi-core runs this is core-cycles, not
// makespan).
func (b *Breakdown) TotalCycles() uint64 {
	var s uint64
	for i := range b.Cores {
		s += b.Cores[i].Total
	}
	return s
}

// ByName returns the merged nonzero counts keyed by canonical cause
// name — the BENCH json `cycles_by_cause` object.
func (b *Breakdown) ByName() map[string]uint64 {
	v := b.Merged()
	out := make(map[string]uint64)
	for c := CauseNone + 1; c < numCauses; c++ {
		if v[c] != 0 {
			out[causeNames[c]] = v[c]
		}
	}
	return out
}

// ByGroup returns the merged counts folded into report groups.
func (b *Breakdown) ByGroup() map[string]uint64 {
	v := b.Merged()
	out := make(map[string]uint64)
	for c := CauseNone + 1; c < numCauses; c++ {
		if v[c] != 0 {
			out[causeGroups[c]] += v[c]
		}
	}
	return out
}

// FromEvents rebuilds a profile from a trace's KCharge events — the
// offline path for attribution over a saved event stream. It fails
// if the ring dropped events (the stream is incomplete, so conservation
// cannot hold) or if an event carries an unknown cause.
func FromEvents(events []trace.Event, dropped uint64) (*Profile, error) {
	if dropped > 0 {
		return nil, fmt.Errorf("profile: trace dropped %d events; attribution stream incomplete", dropped)
	}
	cores := 1
	for i := range events {
		if n := int(events[i].Core) + 1; n > cores {
			cores = n
		}
	}
	p := New(cores)
	for i := range events {
		e := &events[i]
		if e.Kind != trace.KCharge {
			continue
		}
		c := Cause(e.Addr)
		if c == CauseNone || c >= numCauses {
			return nil, fmt.Errorf("profile: event %d charges unknown cause %d", i, uint64(e.Addr))
		}
		p.Add(int(e.Core), c, e.Arg)
	}
	return p, nil
}

// WriteFolded emits the breakdown in folded-stack format, one
// `frame;frame;... count` line per nonzero (core, cause) bucket, for
// flamegraph tooling. prefix frames (e.g. "SLPMT;hashtable") lead each
// stack; group and cause frames follow.
func WriteFolded(w io.Writer, prefix string, b *Breakdown) error {
	for i := range b.Cores {
		cb := &b.Cores[i]
		for c := CauseNone + 1; c < numCauses; c++ {
			n := cb.Causes[c]
			if n == 0 {
				continue
			}
			head := prefix
			if head != "" {
				head += ";"
			}
			if _, err := fmt.Fprintf(w, "%score%d;%s;%s %d\n", head, cb.Core, causeGroups[c], causeNames[c], n); err != nil {
				return err
			}
		}
	}
	return nil
}

// SortedNames returns the nonzero merged cause names sorted by
// descending cycle count (ties by name) — the rendering order for
// breakdown tables.
func (b *Breakdown) SortedNames() []string {
	by := b.ByName()
	names := make([]string, 0, len(by))
	for n := range by { //slpmt:determinism-ok: collected keys are sorted below
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if by[names[i]] != by[names[j]] {
			return by[names[i]] > by[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
