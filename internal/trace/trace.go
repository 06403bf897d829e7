// Package trace is the simulator's cycle-level event tracer: a
// preallocated buffer of fixed-width binary records stamped with the
// emitting core and its simulated cycle, spilled whole to a Sink. It is
// the observability layer under every profiling consumer — the
// Perfetto exporter (perfetto.go) and the online analyses of
// internal/trace/stream, which read the spilled buffers as one lossless
// event stream.
//
// Overhead contract. Tracing must never perturb the simulation: the
// tracer only observes (it reads clocks, never advances them), so a
// traced run produces bit-identical cycles and counters to an untraced
// one. The disabled path is a nil-receiver fast path — every
// instrumentation site calls Emit on a possibly-nil *Tracer, and the
// method returns after a single branch, with zero allocations (see
// bench_test.go for the enforcement). Golden outputs therefore stay
// byte-identical when no tracer is attached.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind identifies an event class.
type Kind uint8

// Event kinds. Arg semantics per kind are noted on the right.
const (
	KNone           Kind = iota
	KTxBegin             // arg = transaction sequence number
	KCommitStart         // arg = transaction sequence number
	KTxCommit            // arg = transaction sequence number
	KTxAbort             // arg = transaction sequence number
	KStore               // addr, arg = store size in bytes
	KStoreT              // addr, arg = store size in bytes
	KLogAppend           // addr = logged word/line, arg = payload bytes
	KLogPersist          // addr = logged word/line, arg = log-stream offset after the record
	KLogSync             // addr = log header base, arg = durable watermark offset
	KCommitMarker        // addr = log mode (0 undo, 1 redo), arg = transaction sequence number
	KLazyDefer           // addr = line left volatile at commit, arg = transaction sequence number
	KLazyDrainStart      // arg = retained transactions drained
	KLazyDrainEnd        // arg = retained transactions drained
	KCacheMiss           // addr = line, arg = serving level (2=L2, 3=L3, 4=PM, 5=peer cache)
	KCacheEvict          // addr = line, arg = level evicted from (2=L2->L3, 3=L3->PM)
	KCohSnoop            // addr = line, arg = 1 for a write request
	KCohInval            // addr = line (remote copy invalidated)
	KCohDowngrade        // addr = line (remote copy downgraded to Shared)
	KCohWriteback        // addr = line (dirty remote copy written back)
	KWPQEnqueue          // addr, arg = WPQ occupancy in bytes after enqueue
	KWPQDrain            // addr = drained line, arg = WPQ occupancy in bytes after the drain
	KWPQStall            // addr, arg = cycles stalled waiting for WPQ space
	KCharge              // addr = attribution cause (internal/profile Cause), arg = cycles charged
	KEpochClose          // addr = log mode (0 undo, 1 redo), arg = closed epoch number
	KWPQRemote           // addr = target of a cross-socket access, arg = interconnect hop cycles
	KSigHit              // addr = store line matching a retained signature, arg = retained tx drained by the hit
	numKinds
)

// kindNames are the display names used by the exporters.
var kindNames = [numKinds]string{
	KNone:           "none",
	KTxBegin:        "tx",
	KCommitStart:    "commit",
	KTxCommit:       "tx.commit",
	KTxAbort:        "tx.abort",
	KStore:          "store",
	KStoreT:         "storeT",
	KLogAppend:      "log.append",
	KLogPersist:     "log.persist",
	KLogSync:        "log.sync",
	KCommitMarker:   "commit.marker",
	KLazyDefer:      "lazy.defer",
	KLazyDrainStart: "lazy.drain",
	KLazyDrainEnd:   "lazy.drain.end",
	KCacheMiss:      "cache.miss",
	KCacheEvict:     "cache.evict",
	KCohSnoop:       "coh.snoop",
	KCohInval:       "coh.inval",
	KCohDowngrade:   "coh.downgrade",
	KCohWriteback:   "coh.writeback",
	KWPQEnqueue:     "wpq.enqueue",
	KWPQDrain:       "wpq.drain",
	KWPQStall:       "wpq.stall",
	KCharge:         "charge",
	KEpochClose:     "epoch.close",
	KWPQRemote:      "wpq.remote",
	KSigHit:         "sig.hit",
}

// Per-socket WPQ occupancy encoding. On a multi-socket topology each
// socket's device reports its own occupancy, so the KWPQEnqueue/KWPQDrain
// Arg carries the socket ID in the top byte and the occupancy in the low
// 56 bits. Socket 0 tags with zero, so single-socket traces are
// byte-identical to the historical encoding.
const wpqSocketShift = 56

// WPQArgTag returns the Arg tag a device on the given socket ORs into
// its occupancy values.
func WPQArgTag(socket int) uint64 { return uint64(socket) << wpqSocketShift }

// WPQSocket extracts the socket ID from a KWPQEnqueue/KWPQDrain Arg.
func WPQSocket(arg uint64) int { return int(arg >> wpqSocketShift) }

// WPQOcc extracts the occupancy bytes from a KWPQEnqueue/KWPQDrain Arg.
func WPQOcc(arg uint64) uint64 { return arg & (1<<wpqSocketShift - 1) }

// String returns the kind's display name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-width trace record.
type Event struct {
	Cycle uint64 // emitting core's simulated cycle
	Addr  uint64 // simulated PM address, when meaningful
	Arg   uint64 // kind-specific payload (see the Kind constants)
	Kind  Kind
	Core  uint8 // emitting core ID
}

// Mask builds a kind-filter bitmask accepting exactly the given kinds.
func Mask(kinds ...Kind) uint64 {
	var m uint64
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// AllKinds is the mask accepting every event kind.
const AllKinds = ^uint64(0)

// MetricsMask accepts only the kinds the interval-metrics reducer
// consumes: transaction lifecycle, lazy-drain spans, and WPQ activity.
// It keeps a metrics-only tracer small even on long runs by dropping
// the high-rate per-access events (stores, cache, coherence).
func MetricsMask() uint64 {
	return Mask(KTxBegin, KCommitStart, KTxCommit, KTxAbort,
		KLazyDrainStart, KLazyDrainEnd,
		KWPQEnqueue, KWPQDrain, KWPQStall)
}

// SanitizeMask accepts exactly the kinds the persist-order sanitizer
// (Sanitizer) replays: the transaction lifecycle, the log/commit-marker
// durability events, lazy-persistency deferral and drains, stores, and
// the WPQ stream. It drops the cache/coherence events, which the
// sanitizer does not consume, so a sanitizer-only tracer spills far
// less often than a full-detail one.
func SanitizeMask() uint64 {
	return Mask(KTxBegin, KCommitStart, KTxCommit, KTxAbort,
		KStore, KStoreT,
		KLogAppend, KLogPersist, KLogSync, KCommitMarker, KEpochClose,
		KLazyDefer, KLazyDrainStart, KLazyDrainEnd,
		KWPQEnqueue, KWPQDrain, KWPQStall)
}

// DefaultCapacity is the buffer capacity New(0) selects, in events
// (one event is 32 bytes in memory): room for a full-detail trace of a
// test-sized run without a spill sink.
const DefaultCapacity = 1 << 20

// Sink receives the tracer's full buffers, turning it into a streaming
// source (see internal/trace/stream). Spill takes ownership of the
// filled buffer and returns a replacement buffer of the same capacity
// to keep recording into — the double-buffer handoff: while the sink
// processes (writes, reduces) one buffer, the tracer fills the other,
// and the exchange point is the only synchronization.
type Sink interface {
	Spill(events []Event) []Event
}

// Tracer records events into a preallocated buffer and never loses
// one: with a Sink attached, a full buffer is handed to the sink and
// recording continues into the sink's replacement; without one, the
// buffer must hold every event, and recording past its capacity
// panics. A harness that streams only a measured region keeps the mask
// at 0 until the region starts, then installs its mask and attaches
// its sink. A nil *Tracer is valid and means "tracing disabled": every
// method is safe to call and Emit returns after one branch. Not safe
// for concurrent use (the simulator is single-threaded per machine); a
// Sink may process spilled buffers on another goroutine because the
// handoff transfers ownership.
type Tracer struct {
	buf  []Event
	head int // next slot to write
	mask uint64
	sink Sink
}

// New returns a tracer with the given buffer capacity (<= 0 selects
// DefaultCapacity), accepting every kind.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, capacity), mask: AllKinds}
}

// SetMask installs a kind filter (see Mask); events of masked-out kinds
// are rejected in Emit's fast path.
func (t *Tracer) SetMask(m uint64) { t.mask = m }

// SetSink attaches a spill sink: from now on a full buffer is handed
// to the sink, so memory stays bounded by the buffer itself however
// many events are recorded. Pass nil to detach.
func (t *Tracer) SetSink(s Sink) { t.sink = s }

// Flush hands the buffered tail to the attached sink, leaving the
// buffer empty. Harnesses call it once at the end of the measured
// region so the sink has seen every event; a no-op without a sink.
func (t *Tracer) Flush() {
	if t == nil || t.sink == nil || t.head == 0 {
		return
	}
	t.spill()
}

// spill exchanges the buffered events for a fresh buffer. Not on the
// noalloc emit path: the defensive re-size below may allocate.
func (t *Tracer) spill() {
	nb := t.sink.Spill(t.buf[:t.head])
	if cap(nb) < cap(t.buf) { // sink returned a short buffer; keep capacity stable
		nb = make([]Event, cap(t.buf))
	}
	t.buf = nb[:cap(t.buf)]
	t.head = 0
}

// errBufferFull is the panic value of recording into a full buffer
// with no sink attached. It is an error value, not a string, so
// panicking with it converts nothing on record's noalloc path.
var errBufferFull = errors.New("trace: buffer full and no sink attached; attach a Sink or enlarge the buffer")

// Emit records one event. The nil-receiver/mask check is the entire
// disabled path; the record body lives in a separate method so this
// one stays small enough to inline at every instrumentation site.
//
//slpmt:noalloc
func (t *Tracer) Emit(core uint8, cycle uint64, kind Kind, addr, arg uint64) {
	if t == nil || t.mask&(1<<uint(kind)) == 0 {
		return
	}
	t.record(core, cycle, kind, addr, arg)
}

// record appends the event to the buffer, first spilling a full buffer
// to the sink. A full buffer without a sink panics: the tracer never
// overwrites an event.
//
//slpmt:noalloc
func (t *Tracer) record(core uint8, cycle uint64, kind Kind, addr, arg uint64) {
	if t.head == len(t.buf) {
		if t.sink == nil {
			panic(errBufferFull)
		}
		t.spill()
	}
	t.buf[t.head] = Event{Cycle: cycle, Addr: addr, Arg: arg, Kind: kind, Core: core}
	t.head++
}

// Len returns the number of events currently buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.head
}

// Events returns the buffered events in emission order (a copy).
func (t *Tracer) Events() []Event {
	if t == nil || t.head == 0 {
		return nil
	}
	return append([]Event(nil), t.buf[:t.head]...)
}

// RecordSize is the encoded width of one event record (cycle, addr,
// arg, kind, core) in the segment format (internal/trace/stream).
const RecordSize = 8 + 8 + 8 + 1 + 1

// PutRecord encodes e into rec, which must be at least RecordSize long.
func PutRecord(rec []byte, e Event) {
	binary.LittleEndian.PutUint64(rec[0:], e.Cycle)
	binary.LittleEndian.PutUint64(rec[8:], e.Addr)
	binary.LittleEndian.PutUint64(rec[16:], e.Arg)
	rec[24] = uint8(e.Kind)
	rec[25] = e.Core
}

// GetRecord decodes one event from rec (at least RecordSize bytes).
func GetRecord(rec []byte) Event {
	return Event{
		Cycle: binary.LittleEndian.Uint64(rec[0:]),
		Addr:  binary.LittleEndian.Uint64(rec[8:]),
		Arg:   binary.LittleEndian.Uint64(rec[16:]),
		Kind:  Kind(rec[24]),
		Core:  rec[25],
	}
}
