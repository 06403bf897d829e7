package engine

import (
	"encoding/binary"

	"github.com/persistmem/slpmt/internal/logbuf"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/trace"
)

// logWriter appends serialized records to the durable log area, packing
// them into cache-line-sized PM writes (the "pad" organization of
// §III-B2: variable-sized records, line-sized memory interface).
//
// Writes are line-granular: when records fill a 64-byte chunk the chunk
// is persisted. A record can therefore be torn across a crash — its
// address word persisted without its data — so the durable header
// carries a WATERMARK, advanced (in a separate, ordered write) only at
// sync points, and recovery parses records strictly below it. A sync is
// required before any dependent data line may persist; appending more
// records after a sync rewrites the partial tail line — honest write
// amplification.
type logWriter struct {
	m    *machine.Core
	base mem.Addr // log area base
	size uint64   // log area size

	seq      uint64 // owning transaction sequence (record tags)
	hdr      logfmt.Header
	buf      []byte // serialized bytes not yet aligned-flushed
	bufStart uint64 // offset (from base) of buf[0]
	nextOff  uint64 // offset of the byte after the last appended record
}

func newLogWriter(m *machine.Core) *logWriter {
	w := &logWriter{m: m}
	w.wipe()
	return w
}

// wipe returns the writer to the state newLogWriter left it in, with
// no stream and no header, keeping its staging buffer.
func (w *logWriter) wipe() {
	*w = logWriter{
		m:    w.m,
		base: w.m.Layout.LogBase,
		size: w.m.Layout.LogSize,
		buf:  w.buf[:0],
	}
}

// reset starts a fresh record stream (transaction Begin).
func (w *logWriter) reset(seq uint64) {
	w.seq = seq
	w.buf = w.buf[:0]
	w.bufStart = logfmt.RecordsStart
	w.nextOff = logfmt.RecordsStart
}

// writeHeader persists the log header line and remembers it so sync can
// re-issue it with an advanced watermark.
func (w *logWriter) writeHeader(h logfmt.Header) {
	w.hdr = h
	line := logfmt.EncodeHeader(h)
	w.m.PersistLogLine(w.base, line[:])
}

// append serializes one record into the stream and persists any
// completed lines.
func (w *logWriter) append(r logbuf.Record) {
	need := 8 + len(r.Data)
	if w.nextOff+uint64(need)+8 > w.size {
		panic("engine: log area overflow (transaction too large)")
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], logfmt.EncodeAddrWord(r.Addr, len(r.Data), logfmt.Tag(w.seq)))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, r.Data...)
	w.nextOff += uint64(need)
	w.m.Stats.LogRecordsPersisted++
	w.m.Stats.LogBytesPersisted += uint64(need)
	// The record has entered the durable log stream; its end offset lets
	// the persist-order sanitizer match it against later watermark syncs.
	w.m.Trace(trace.KLogPersist, r.Addr, w.nextOff)
	w.flushFull()
}

// flushFull persists every complete 64-byte chunk in buf.
func (w *logWriter) flushFull() {
	for len(w.buf) >= mem.LineSize {
		w.m.PersistLogLine(w.base+w.bufStart, w.buf[:mem.LineSize])
		w.buf = append(w.buf[:0], w.buf[mem.LineSize:]...)
		w.bufStart += mem.LineSize
	}
}

// sync makes every appended record durably VISIBLE: the partial tail
// line is persisted, then the header's watermark advances to nextOff.
// The two writes are ordered (tail before watermark), so a crash
// between them leaves the old watermark — records beyond it are simply
// not yet visible, which is safe because their data lines persist only
// after sync returns. Subsequent appends continue in the same tail line
// (rewriting it on the next sync).
func (w *logWriter) sync() {
	if len(w.buf) > 0 {
		w.m.PersistLogLine(w.base+w.bufStart, w.buf)
	}
	if w.hdr.Watermark != w.nextOff {
		w.hdr.Watermark = w.nextOff
		line := logfmt.EncodeHeader(w.hdr)
		w.m.PersistLogLine(w.base, line[:])
	}
	// Records at offsets <= the watermark are now durably visible; data
	// lines depending on them may persist from here on.
	w.m.Trace(trace.KLogSync, w.base, w.hdr.Watermark)
}

// logSink is the hardware path from record creation to persistent
// memory. Implementations differ in their buffering/coalescing.
type logSink interface {
	// add accepts a newly created record. It may persist records.
	add(r logbuf.Record)
	// flushLine makes every record of the given cache line durable
	// (called before the line leaves the private caches).
	flushLine(line mem.Addr)
	// hasLine reports whether records for the line are still buffered.
	hasLine(line mem.Addr) bool
	// discardLine drops buffered records for the line (commit-time
	// treatment of lazily persistent lines). Returns count dropped.
	discardLine(line mem.Addr) int
	// drain persists every buffered record and syncs the stream.
	drain()
	// spill appends every buffered record to the stream without a
	// sync (no watermark advance, no ordering point). Group commit
	// spills at transaction boundaries so the epoch stream stays
	// partitioned by transaction: everything below the next
	// transaction's start offset belongs to earlier transactions.
	spill()
	// clear drops all buffered state without persisting (abort).
	clear()
	// buffered returns a snapshot of the not-yet-persisted records.
	buffered() []logbuf.Record
	// wipe drops all buffered state and zeroes the counters, returning
	// the sink to its newly built state.
	wipe()
}

// refreshFn lets the redo engine refresh a record's payload to the
// latest volatile value at spill time (undo records keep their captured
// old values; see engine.refreshRecord).
type refreshFn func(r logbuf.Record) logbuf.Record

// tieredSink wraps the four-tier coalescing log buffer.
type tieredSink struct {
	buf     *logbuf.Buffer
	w       *logWriter
	refresh refreshFn
	dirty   bool // records appended since last sync
}

func newTieredSink(w *logWriter, refresh refreshFn) *tieredSink {
	s := &tieredSink{w: w, refresh: refresh}
	s.buf = logbuf.New(func(recs []logbuf.Record) {
		for _, r := range recs {
			s.w.append(s.refresh(r))
		}
		s.dirty = true
	})
	return s
}

func (s *tieredSink) add(r logbuf.Record)     { s.buf.Insert(r) }
func (s *tieredSink) hasLine(a mem.Addr) bool { return s.buf.HasLine(a) }

func (s *tieredSink) flushLine(a mem.Addr) {
	if s.buf.FlushLine(a) > 0 || s.dirty {
		s.w.sync()
		s.dirty = false
	}
}

func (s *tieredSink) discardLine(a mem.Addr) int { return s.buf.DiscardLine(a) }

func (s *tieredSink) drain() {
	s.buf.DrainAll()
	s.w.sync()
	s.dirty = false
}

func (s *tieredSink) spill() { s.buf.DrainAll() }

func (s *tieredSink) clear() { s.buf.Clear() }

func (s *tieredSink) wipe() {
	s.buf.Reset()
	s.dirty = false
}

func (s *tieredSink) buffered() []logbuf.Record { return s.buf.Records() }

// stats exposes the underlying buffer counters.
func (s *tieredSink) stats() logbuf.Stats { return s.buf.Stats() }

// directSink models EDE's log path: hardware logging without a
// coalescing log buffer. Records are appended to the durable log as
// they are produced (write-combining packs them into line-sized PM
// writes, as the cache hierarchy would), but — unlike the tiered
// buffer — adjacent word records are never merged into larger records,
// so every word pays its own 8-byte address header. This is exactly the
// gap the paper identifies: "Although EDE supports fine-grain logging,
// it loses opportunities for hardware log coalescing via a log buffer."
//
// Because records leave the core immediately, nothing is buffered:
// lazily persistent lines can never have their records discarded at
// commit, and flushLine only needs to sync the packing tail.
type directSink struct {
	w       *logWriter
	refresh refreshFn
	dirty   bool
}

func newDirectSink(w *logWriter, refresh refreshFn) *directSink {
	return &directSink{w: w, refresh: refresh}
}

func (s *directSink) add(r logbuf.Record) {
	s.w.append(s.refresh(r))
	s.dirty = true
}

func (s *directSink) flushLine(a mem.Addr) {
	if s.dirty {
		s.w.sync()
		s.dirty = false
	}
}

func (s *directSink) hasLine(a mem.Addr) bool { return false }

func (s *directSink) discardLine(a mem.Addr) int { return 0 }

func (s *directSink) drain() {
	s.w.sync()
	s.dirty = false
}

func (s *directSink) spill() {}

func (s *directSink) clear() { s.dirty = false }

func (s *directSink) wipe() { s.dirty = false }

func (s *directSink) buffered() []logbuf.Record { return nil }
