package stream

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/trace"
)

// Interval is one telemetry snapshot: the stream's activity over a
// fixed window of simulated cycles, including the per-cause cycle
// attribution vector for the window — the §9 conservation contract
// applied per interval instead of only end-of-run. Serialized as one
// NDJSON line per interval and embedded (as a series) in BENCH json.
type Interval struct {
	Index      int    `json:"interval"`
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`

	Events     uint64 `json:"events"`
	Commits    uint64 `json:"commits"`
	Aborts     uint64 `json:"aborts"`
	LazyDrains uint64 `json:"lazy_drains"`

	// SignatureHits counts retained-signature matches (KSigHit) in the
	// window — each one forced a lazy drain of the matched transaction —
	// and ForcedDrainTx the retained transactions those drains flushed
	// (the KLazyDrainEnd drain depths summed). Per-interval visibility of
	// the end-of-run Stats.SignatureHits counter.
	SignatureHits uint64 `json:"signature_hits,omitempty"`
	ForcedDrainTx uint64 `json:"forced_drain_tx,omitempty"`

	WPQStallCycles uint64 `json:"wpq_stall_cycles"`

	// CyclesByCause is the interval's attribution vector: charged
	// cycles per canonical cause name. A charge whose span crosses an
	// interval boundary counts entirely in the interval its
	// post-advance cycle lands in, so the vectors telescope — summing
	// them over all intervals reproduces the end-of-run breakdown
	// exactly.
	CyclesByCause map[string]uint64 `json:"cycles_by_cause,omitempty"`
}

// maxOpenIntervals bounds the window of intervals held open waiting for
// lagging cores; past it the oldest is force-closed. Keeps telemetry
// state bounded even under extreme core skew.
const maxOpenIntervals = 1024

// Telemetry is the periodic snapshotter: a consumer that buckets the
// stream into fixed cycle windows and emits each closed window as one
// NDJSON line (when given a writer), while checking the cycle-
// conservation contract online: every KCharge must telescope — the
// charged cycles per core must sum exactly to the core's clock advance,
// event by event. An interval closes once every core seen so far has
// progressed past its end (events arrive in per-core cycle order, so no
// earlier event can still arrive), or when the open window exceeds
// maxOpenIntervals.
type Telemetry struct {
	interval uint64
	out      io.Writer // NDJSON sink; nil = accumulate only

	open    map[int]*Interval
	minOpen int
	started bool

	coreCycle  [256]uint64
	coreSeen   [256]bool
	chargeBase [256]uint64
	chargeCum  [256]uint64
	chargeSeen [256]bool

	series  []Interval
	consErr error
	emitErr error
}

// NewTelemetry returns a snapshotter with the given window length in
// cycles (<= 0 selects 1<<16). out receives one JSON line per closed
// interval; pass nil to only accumulate the series.
func NewTelemetry(intervalCycles uint64, out io.Writer) *Telemetry {
	if intervalCycles == 0 {
		intervalCycles = 1 << 16
	}
	return &Telemetry{interval: intervalCycles, out: out, open: map[int]*Interval{}}
}

// Kinds registers every kind: the snapshotter counts all events and
// needs every core's cycle progress to close intervals.
func (t *Telemetry) Kinds() uint64 { return trace.AllKinds }

// Consume folds one event into its interval.
func (t *Telemetry) Consume(e trace.Event) {
	idx := int(e.Cycle / t.interval)
	if !t.started || idx < t.minOpen {
		if t.started {
			// A straggler for an already-closed interval (a core idle
			// long enough to fall behind every other): fold it into the
			// oldest open window.
			idx = t.minOpen
		} else {
			t.started = true
			t.minOpen = idx
		}
	}
	iv := t.open[idx]
	if iv == nil {
		iv = &Interval{
			Index:      idx,
			StartCycle: uint64(idx) * t.interval,
			EndCycle:   uint64(idx+1)*t.interval - 1,
		}
		t.open[idx] = iv
	}
	iv.Events++
	switch e.Kind {
	case trace.KTxCommit:
		iv.Commits++
	case trace.KTxAbort:
		iv.Aborts++
	case trace.KLazyDrainEnd:
		iv.LazyDrains++
		iv.ForcedDrainTx += e.Arg
	case trace.KSigHit:
		iv.SignatureHits++
	case trace.KWPQStall:
		iv.WPQStallCycles += e.Arg
	case trace.KCharge:
		cause := profile.Cause(e.Addr)
		if iv.CyclesByCause == nil {
			iv.CyclesByCause = map[string]uint64{}
		}
		iv.CyclesByCause[cause.String()] += e.Arg
		t.checkConservation(e)
	}
	// Track per-core progress and close every interval all seen cores
	// have moved past.
	if e.Cycle > t.coreCycle[e.Core] || !t.coreSeen[e.Core] {
		t.coreCycle[e.Core] = e.Cycle
	}
	t.coreSeen[e.Core] = true
	t.closeUpTo(t.minSeenCycle())
	for idx-t.minOpen >= maxOpenIntervals {
		t.closeOne(t.minOpen)
	}
}

// checkConservation verifies the telescoping charge invariant for one
// KCharge event: base + sum(charges) == post-advance cycle, per core.
// The first charge establishes the core's base (its clock at the
// measured-region start).
func (t *Telemetry) checkConservation(e trace.Event) {
	c := e.Core
	if !t.chargeSeen[c] {
		t.chargeSeen[c] = true
		t.chargeBase[c] = e.Cycle - e.Arg
	}
	t.chargeCum[c] += e.Arg
	if t.consErr == nil && t.chargeBase[c]+t.chargeCum[c] != e.Cycle {
		t.consErr = fmt.Errorf(
			"stream: core %d attribution not conserved at cycle %d: base %d + charged %d = %d",
			c, e.Cycle, t.chargeBase[c], t.chargeCum[c], t.chargeBase[c]+t.chargeCum[c])
	}
}

// minSeenCycle returns the slowest seen core's cycle.
func (t *Telemetry) minSeenCycle() uint64 {
	min, any := ^uint64(0), false
	for c := range t.coreCycle {
		if t.coreSeen[c] && t.coreCycle[c] < min {
			min = t.coreCycle[c]
			any = true
		}
	}
	if !any {
		return 0
	}
	return min
}

// closeUpTo closes (in index order) every open interval that ends at or
// before cycle.
func (t *Telemetry) closeUpTo(cycle uint64) {
	for t.started && len(t.open) > 0 {
		iv, ok := t.open[t.minOpen]
		if !ok {
			t.minOpen++ // empty window between active ones
			continue
		}
		if iv.EndCycle >= cycle {
			return
		}
		t.closeOne(t.minOpen)
	}
}

// closeOne finalizes one interval: appends it to the series and emits
// its NDJSON line.
func (t *Telemetry) closeOne(idx int) {
	iv := t.open[idx]
	delete(t.open, idx)
	if idx == t.minOpen {
		t.minOpen++
	}
	if iv == nil {
		return
	}
	t.series = append(t.series, *iv)
	if t.out == nil || t.emitErr != nil {
		return
	}
	line, err := json.Marshal(iv)
	if err == nil {
		line = append(line, '\n')
		_, err = t.out.Write(line)
	}
	if err != nil {
		t.emitErr = err
	}
}

// Flush closes every still-open interval (stream end). The Writer calls
// it from Close; offline feeders call it after Feed.
func (t *Telemetry) Flush() {
	for len(t.open) > 0 {
		if _, ok := t.open[t.minOpen]; !ok {
			t.minOpen++
			continue
		}
		t.closeOne(t.minOpen)
	}
}

// Intervals returns the closed intervals in time order.
func (t *Telemetry) Intervals() []Interval { return t.series }

// Err returns the first conservation violation or NDJSON write error.
func (t *Telemetry) Err() error {
	if t.consErr != nil {
		return t.consErr
	}
	return t.emitErr
}

// Reset clears the snapshotter at a measured-region boundary. The
// NDJSON sink is kept; lines already written belong to the discarded
// region and are the caller's to truncate if that matters.
func (t *Telemetry) Reset() {
	out, interval := t.out, t.interval
	*t = Telemetry{interval: interval, out: out, open: map[int]*Interval{}}
}
