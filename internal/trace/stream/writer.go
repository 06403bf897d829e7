package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/persistmem/slpmt/internal/trace"
)

// Writer is the tracer's streaming sink: it implements trace.Sink, so
// attaching it with Tracer.SetSink turns ring-full from "drop oldest"
// into "hand the full buffer over and keep recording". Buffers cross to
// a single writer goroutine through a two-deep channel pair — the
// double-buffer: while the goroutine encodes one buffer into the
// current segment (and feeds any live consumers), the simulator fills
// the other, and exactly two buffers ever exist. Segments are written
// and fsync'd whole at rotation, so trace-side memory is
// O(segment buffer), never O(events).
//
// The zero Writer is not usable; construct with NewWriter. Spill and
// Reset are called by the tracer on the simulator thread; Close must be
// called once, after the final Tracer.Flush, and joins the goroutine.
// Attached consumers run on the writer goroutine and must not be read
// until Close (or a Tracer.Reset, which acts as a barrier) returns.
type Writer struct {
	dir       string
	segEvents int
	cons      []maskedConsumer

	work     chan []trace.Event // filled buffers (and nil = reset marker)
	free     chan []trace.Event // processed buffers returning to the tracer
	done     chan struct{}
	resetAck chan struct{}

	bufs    int // buffers in circulation (simulator thread only)
	dropped atomic.Uint64

	// Writer-goroutine state.
	seg    []trace.Event // current segment accumulation
	segIdx int
	events uint64
	err    error

	closed bool
}

type maskedConsumer struct {
	c    Consumer
	mask uint64
}

// Optional consumer hooks: a consumer implementing resetter is cleared
// at the measured-region boundary (Tracer.Reset); one implementing
// flusher is finalized at Close, before the sentinel is written. Both
// embed Consumer, which every value they are asserted on is, so a
// static call graph resolves them to consumers only and not to every
// type with a Reset or Flush method.
type resetter interface {
	Consumer
	Reset()
}
type flusher interface {
	Consumer
	Flush()
}

// NewWriter creates the stream directory (clearing any previous
// stream's segments and sentinel), attaches the given live consumers,
// and starts the writer goroutine. segEvents <= 0 selects
// DefaultSegmentEvents.
func NewWriter(dir string, segEvents int, consumers ...Consumer) (*Writer, error) {
	if segEvents <= 0 {
		segEvents = DefaultSegmentEvents
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := clearStream(dir); err != nil {
		return nil, err
	}
	w := &Writer{
		dir:       dir,
		segEvents: segEvents,
		work:      make(chan []trace.Event, 1),
		free:      make(chan []trace.Event, 1),
		done:      make(chan struct{}),
		resetAck:  make(chan struct{}),
		bufs:      1, // the tracer's own ring is buffer #1
		seg:       make([]trace.Event, 0, segEvents),
	}
	for _, c := range consumers {
		w.cons = append(w.cons, maskedConsumer{c: c, mask: c.Kinds()})
	}
	go w.run()
	return w, nil
}

// clearStream removes a previous run's segments and sentinel from dir.
func clearStream(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if isSegName(name) || name == ClosedSentinel {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

func isSegName(name string) bool {
	return len(name) == len("seg-00000000.slptrc") &&
		name[:4] == "seg-" && filepath.Ext(name) == ".slptrc"
}

// Spill implements trace.Sink: it hands the filled buffer to the writer
// goroutine and returns an empty buffer of the same capacity for the
// tracer to keep recording into. The second buffer is allocated on the
// first spill; afterwards the same two buffers alternate, so a spill
// blocks only while both are in flight (disk backpressure stalls
// wall-clock, never simulated time).
func (w *Writer) Spill(events []trace.Event) []trace.Event {
	w.work <- events
	if w.bufs < 2 {
		w.bufs++
		return make([]trace.Event, 0, cap(events))
	}
	return <-w.free
}

// Reset implements trace.Sink: the measured-region boundary moved, so
// everything streamed so far was setup. The call drains pending
// buffers, deletes the written segments, and resets attached consumers;
// it returns only after the writer goroutine acknowledges, so it is
// also a memory barrier for consumer state.
func (w *Writer) Reset() {
	w.work <- nil
	<-w.resetAck
}

// SetDropped records the tracer's cumulative drop count for the next
// segment header. With a sink attached the tracer never drops, so this
// stays zero in practice; it exists so a header's dropped field is
// trustworthy even if a masked ring is later allowed to overflow.
func (w *Writer) SetDropped(n uint64) { w.dropped.Store(n) }

// Close flushes the final partial segment, finalizes consumers, writes
// the CLOSED sentinel, and joins the writer goroutine. It must be
// called exactly once, after the tracer's final Flush; no Spill may
// follow. Returns the first error the stream hit.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	close(w.work)
	<-w.done
	return w.err
}

// Segments returns how many segment files the stream holds; valid after
// Close.
func (w *Writer) Segments() int { return w.segIdx }

// Events returns how many events were streamed; valid after Close.
func (w *Writer) Events() uint64 { return w.events }

// run is the writer goroutine: it owns the segment buffer, the segment
// files, and the attached consumers.
func (w *Writer) run() {
	for buf := range w.work {
		if buf == nil {
			w.resetStream()
			w.resetAck <- struct{}{}
			continue
		}
		w.process(buf)
		w.free <- buf[:0]
	}
	w.finish()
	close(w.done)
}

// process feeds one spilled buffer to the consumers and the segment
// accumulator, rotating full segments out to disk.
func (w *Writer) process(events []trace.Event) {
	for i := range events {
		e := events[i]
		for j := range w.cons {
			if w.cons[j].mask&(1<<uint(e.Kind)) != 0 {
				w.cons[j].c.Consume(e)
			}
		}
	}
	w.events += uint64(len(events))
	w.seg = append(w.seg, events...)
	for len(w.seg) >= w.segEvents {
		w.writeSeg(w.seg[:w.segEvents])
		w.seg = append(w.seg[:0], w.seg[w.segEvents:]...)
	}
}

// writeSeg writes one segment file; after the first disk error the
// stream keeps consuming (the simulator must never block on a dead
// disk) but writes nothing further.
func (w *Writer) writeSeg(events []trace.Event) {
	if w.err == nil {
		w.err = writeSegmentFile(w.dir, w.segIdx, events, w.dropped.Load())
	}
	w.segIdx++
}

// resetStream discards the stream state at a measured-region boundary.
func (w *Writer) resetStream() {
	w.seg = w.seg[:0]
	for i := 0; i < w.segIdx; i++ {
		os.Remove(filepath.Join(w.dir, segName(i)))
	}
	w.segIdx = 0
	w.events = 0
	w.err = nil
	for j := range w.cons {
		if r, ok := w.cons[j].c.(resetter); ok {
			r.Reset()
		}
	}
}

// finish writes the final (partial) segment, finalizes consumers, and
// drops the CLOSED sentinel.
func (w *Writer) finish() {
	if len(w.seg) > 0 {
		w.writeSeg(w.seg)
		w.seg = w.seg[:0]
	}
	for j := range w.cons {
		if f, ok := w.cons[j].c.(flusher); ok {
			f.Flush()
		}
	}
	if w.err != nil {
		return
	}
	sentinel := filepath.Join(w.dir, ClosedSentinel)
	body := fmt.Sprintf("segments=%d events=%d\n", w.segIdx, w.events)
	f, err := os.OpenFile(sentinel, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		w.err = err
		return
	}
	if _, err := f.WriteString(body); err != nil {
		f.Close()
		w.err = err
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		w.err = err
		return
	}
	if err := f.Close(); err != nil {
		w.err = err
		return
	}
	w.err = syncDir(w.dir)
}
