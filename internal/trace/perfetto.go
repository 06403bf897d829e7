package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
)

// cyclesPerUs converts simulated cycles to trace microseconds: the
// platform's 2 GHz clock.
const cyclesPerUs = 2000

// pfEvent is one Chrome trace_event entry. Span events use Ph "X"
// (complete: ts+dur), instants "i", counters "C", metadata "M".
type pfEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Track layout: one process for the machine; thread tid = core ID + 1
// for each core's events; the WPQ occupancy counter lives on the
// process track.
const (
	pfPid    = 1
	wpqTrack = "WPQ occupancy (bytes)"
)

// pfOpen is a span start waiting for its end on one core.
type pfOpen struct {
	cycle, arg uint64
	ok         bool
}

// pfEnc writes the trace_event document one entry at a time: each
// entry is marshalled as it is produced, so the export never holds the
// document.
type pfEnc struct {
	w   *bufio.Writer
	sep string
	err error // the first marshalling error
}

func (p *pfEnc) ts(cycle uint64) float64 { return float64(cycle) / cyclesPerUs }

func (p *pfEnc) write(ev pfEvent) {
	ev.Pid = pfPid
	b, err := json.Marshal(ev)
	if err != nil {
		p.err = cmp.Or(p.err, err)
		return
	}
	p.w.WriteString(p.sep)
	p.w.Write(b) // the bufio.Writer keeps its first error for Flush
	p.sep = ","
}

// span writes a complete ("X") span on core's track.
func (p *pfEnc) span(core uint8, name, cat string, from, to uint64, args map[string]any) {
	p.write(pfEvent{Name: name, Cat: cat, Ph: "X", Ts: p.ts(from), Dur: p.ts(to) - p.ts(from), Tid: int(core) + 1, Args: args})
}

// pfInstants maps each instant kind to its category and the arg keys
// its Addr and Arg export under ("" = not exported).
var pfInstants = [numKinds]struct{ cat, addr, arg string }{
	KStore:        {"mem", "addr", "bytes"},
	KStoreT:       {"mem", "addr", "bytes"},
	KLogAppend:    {"mem", "addr", "bytes"},
	KLogPersist:   {"log", "addr", "stream_off"},
	KLogSync:      {"log", "", "watermark"},
	KLazyDefer:    {"lazy", "addr", "seq"},
	KCacheMiss:    {"cache", "addr", "level"},
	KCacheEvict:   {"cache", "addr", "level"},
	KCohSnoop:     {"coh", "addr", ""},
	KCohInval:     {"coh", "addr", ""},
	KCohDowngrade: {"coh", "addr", ""},
	KCohWriteback: {"coh", "addr", ""},
	KWPQStall:     {"wpq", "addr", "stall_cycles"},
	KWPQRemote:    {"wpq", "addr", "hop_cycles"},
	KSigHit:       {"lazy", "addr", "retained_txns"},
	KCharge:       {"charge", "cause", "cycles"},
}

// instant writes an instant ("i") event on e's core track, named after
// e's kind.
func (p *pfEnc) instant(e Event, cat string, args map[string]any) {
	p.write(pfEvent{Name: e.Kind.String(), Cat: cat, Ph: "i", Ts: p.ts(e.Cycle), Tid: int(e.Core) + 1, S: "t", Args: args})
}

// WritePerfetto renders the events each delivers as Chrome trace_event
// JSON loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
// per-core tracks with transaction/commit/lazy-drain spans and instant
// events, plus a WPQ occupancy counter track reconstructed from the
// enqueue/drain stream. each must deliver the events sorted by cycle,
// stably (emission order breaks ties), so span pairing and the counter
// series are chronological; stream's Dir.ByCycle orders a saved stream
// so with bounded memory. Every entry is written as its event arrives,
// so the export holds per-core span state only.
func WritePerfetto(w io.Writer, each func(fn func(Event)) error) error {
	p := &pfEnc{w: bufio.NewWriter(w)}
	p.w.WriteString(`{"traceEvents":[`)
	p.write(pfEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": "slpmt machine"}})

	// Span pairing state, per core. Lazy-drain sections do not nest and
	// transaction/commit spans match on the sequence number; a cut
	// stream can orphan a start or an end — unmatched ends are skipped,
	// unmatched starts are closed at the last event's cycle.
	var txOpen, commitOpen, lazyOpen [256]pfOpen
	var coresSeen [256]bool
	lastCycle := uint64(0)

	err := each(func(e Event) {
		coresSeen[e.Core] = true
		lastCycle = max(lastCycle, e.Cycle)
		switch e.Kind {
		case KTxBegin:
			txOpen[e.Core] = pfOpen{e.Cycle, e.Arg, true}
		case KCommitStart:
			commitOpen[e.Core] = pfOpen{e.Cycle, e.Arg, true}
		case KTxCommit, KTxAbort:
			if o := commitOpen[e.Core]; o.ok && e.Kind == KTxCommit {
				p.span(e.Core, "commit", "tx", o.cycle, e.Cycle, map[string]any{"seq": o.arg})
			}
			commitOpen[e.Core].ok = false
			if o := txOpen[e.Core]; o.ok {
				args := map[string]any{"seq": o.arg}
				if e.Kind == KTxAbort {
					args["aborted"] = true
				}
				p.span(e.Core, fmt.Sprintf("tx %d", o.arg), "tx", o.cycle, e.Cycle, args)
				txOpen[e.Core].ok = false
			}
		case KLazyDrainStart:
			lazyOpen[e.Core] = pfOpen{e.Cycle, e.Arg, true}
		case KLazyDrainEnd:
			if o := lazyOpen[e.Core]; o.ok {
				p.span(e.Core, "lazy drain", "lazy", o.cycle, e.Cycle, map[string]any{"retained_txns": o.arg})
				lazyOpen[e.Core].ok = false
			}
		case KStore, KStoreT, KLogAppend, KLogPersist, KLogSync, KLazyDefer, KCacheMiss, KCacheEvict,
			KCohSnoop, KCohInval, KCohDowngrade, KCohWriteback, KWPQStall, KWPQRemote, KSigHit, KCharge:
			in := pfInstants[e.Kind]
			args := map[string]any{}
			if in.addr != "" {
				args[in.addr] = e.Addr
			}
			if in.arg != "" {
				args[in.arg] = e.Arg
			}
			p.instant(e, in.cat, args)
		case KCommitMarker:
			p.instant(e, "tx", map[string]any{"seq": e.Arg, "mode": logMode(e.Addr)})
		case KEpochClose:
			p.instant(e, "log", map[string]any{"epoch": e.Arg, "mode": logMode(e.Addr)})
		case KWPQEnqueue, KWPQDrain:
			// One counter track per socket: socket 0 keeps the historical
			// track name, so single-socket documents are unchanged.
			name := wpqTrack
			if s := WPQSocket(e.Arg); s != 0 {
				name = fmt.Sprintf("%s [socket %d]", wpqTrack, s)
			}
			p.write(pfEvent{Name: name, Ph: "C", Ts: p.ts(e.Cycle), Args: map[string]any{"bytes": WPQOcc(e.Arg)}})
		}
	})
	if err != nil {
		return err
	}
	// Close the spans the stream cut off, then name the threads, each
	// in core order.
	for c, o := range txOpen {
		if o.ok {
			p.span(uint8(c), fmt.Sprintf("tx %d", o.arg), "tx", o.cycle, lastCycle, map[string]any{"seq": o.arg, "truncated": true})
		}
	}
	for c, o := range lazyOpen {
		if o.ok {
			p.span(uint8(c), "lazy drain", "lazy", o.cycle, lastCycle, map[string]any{"retained_txns": o.arg, "truncated": true})
		}
	}
	for c, seen := range coresSeen {
		if seen {
			p.write(pfEvent{Name: "thread_name", Ph: "M", Tid: c + 1, Args: map[string]any{"name": fmt.Sprintf("core %d", c)}})
		}
	}
	if p.err != nil {
		return p.err
	}
	p.w.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return p.w.Flush()
}

// logMode names a commit marker's or epoch close's log mode (Addr).
func logMode(addr uint64) string {
	if addr == 1 {
		return "redo"
	}
	return "undo"
}
