package stream

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/persistmem/slpmt/internal/trace"
)

// Writer is the tracer's streaming sink: it implements trace.Sink, so
// attaching it with Tracer.SetSink hands each full buffer over to be
// processed while the tracer keeps recording. Buffers cross to a
// single writer goroutine through a two-deep channel pair — the
// double-buffer: while the goroutine encodes one buffer into the
// current segment (and feeds any live consumers), the simulator fills
// the other, and exactly two buffers ever exist. Segments are written
// and fsync'd whole at rotation, so trace-side memory is
// O(segment buffer), never O(events). A Writer with no directory only
// runs its consumers: a run then reduces in its two buffers' memory.
//
// The zero Writer is not usable; construct with NewWriter. Spill is
// called by the tracer on the simulator thread; Close must be called
// once, after the final Tracer.Flush, and joins the goroutine.
// Attached consumers run on the writer goroutine and must not be read
// until Close returns.
type Writer struct {
	dir       string
	segEvents int
	cons      maskedConsumers

	work chan []trace.Event // filled buffers
	free chan []trace.Event // processed buffers returning to the tracer
	done chan struct{}

	bufs int // buffers in circulation (simulator thread only)

	// Writer-goroutine state.
	seg    []trace.Event // current segment accumulation
	segIdx int
	events uint64
	err    error

	closed bool
}

// flusher is the optional consumer hook: a consumer implementing it is
// finalized at Close, before the sentinel is written. It embeds
// Consumer, which every value it is asserted on is, so a static call
// graph resolves it to consumers only and not to every type with a
// Flush method.
type flusher interface {
	Consumer
	Flush()
}

// NewWriter creates the stream directory (clearing any previous
// stream's segments and sentinel), attaches the given live consumers,
// and starts the writer goroutine. segEvents <= 0 selects
// DefaultSegmentEvents. An empty dir keeps no binlog: the writer only
// runs the consumers.
func NewWriter(dir string, segEvents int, consumers ...Consumer) (*Writer, error) {
	if segEvents <= 0 {
		segEvents = DefaultSegmentEvents
	}
	w := &Writer{
		dir:       dir,
		segEvents: segEvents,
		work:      make(chan []trace.Event, 1),
		free:      make(chan []trace.Event, 1),
		done:      make(chan struct{}),
		bufs:      1, // the tracer's own buffer is buffer #1
		cons:      masked(consumers),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := clearStream(dir); err != nil {
			return nil, err
		}
		w.seg = make([]trace.Event, 0, segEvents)
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

// Events returns how many events were streamed; valid after Close.
func (w *Writer) Events() uint64 { return w.events }

// run is the writer goroutine: it owns the segment buffer, the segment
// files, and the attached consumers.
func (w *Writer) run() {
	for buf := range w.work {
		w.process(buf)
		w.free <- buf[:0]
	}
	w.finish()
	close(w.done)
}

// process feeds one spilled buffer to the consumers and the segment
// accumulator, rotating full segments out to disk.
func (w *Writer) process(events []trace.Event) {
	for _, e := range events {
		w.cons.deliver(e)
	}
	w.events += uint64(len(events))
	if w.dir == "" {
		return
	}
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
		w.err = writeSegmentFile(w.dir, w.segIdx, events)
	}
	w.segIdx++
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
	if w.err != nil || w.dir == "" {
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
