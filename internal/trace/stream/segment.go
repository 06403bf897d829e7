// Package stream is the one trace-analysis pipeline. Its Consumer
// interface makes every trace analysis online — summarization,
// sanitizing, WPQ bucketing, periodic telemetry, the critical path —
// and a Source replays events into consumers: either an in-memory slice
// (Events) or the binary trace format, a binlog-style directory of
// SLPSEG01 segments (fixed-size files with per-segment headers, fsync'd
// rotation, crash-truncation-tolerant reader) written by a Writer fed
// from the tracer's double-buffered spill path with memory bounded by
// the segment buffer instead of the event count.
//
// Observation contract. Streaming only observes: attaching a Writer as
// the tracer's sink changes no simulated cycles, counters, or goldens.
// The simulator thread only ever blocks in the buffer handoff
// (trace.Sink.Spill), never on disk I/O, and backpressure from a slow
// disk delays wall-clock only — simulated time is unaffected by
// construction, because the tracer reads clocks and never advances
// them.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"github.com/persistmem/slpmt/internal/trace"
)

// Segment format (SLPSEG01): one file per segment, named
// seg-NNNNNNNN.slptrc so lexicographic order is write order.
//
//	off  0: magic "SLPSEG01"
//	off  8: count      u64  records in this segment
//	off 16: firstCycle u64  minimum event cycle in the segment
//	off 24: lastCycle  u64  maximum event cycle in the segment
//	off 32: reserved   u64  written as 0 (once the tracer's dropped-event count)
//	off 40: ncores     u64  per-core count entries that follow
//	off 48: ncores × { core u64, count u64 }
//	then count × trace.RecordSize event records (trace.PutRecord layout)
//
// Every field is little-endian. A segment file is written in one pass
// and fsync'd before the next segment starts, so after a crash only the
// final segment can be torn — and a torn final segment still yields its
// complete-record prefix (see Dir.Iter).
const (
	segMagic       = "SLPSEG01"
	segFixedHeader = 48
	segCoreEntry   = 16
)

// DefaultSegmentEvents is the default segment size in events
// (64Ki events ≈ 1.6 MiB on disk). Trace-side memory of a streamed run
// is O(this), independent of the run's total event count.
const DefaultSegmentEvents = 1 << 16

// ClosedSentinel is the file the Writer creates after the final
// segment: its presence tells readers (and -follow tails) the stream is
// complete.
const ClosedSentinel = "CLOSED"

// segName returns the file name of segment idx.
func segName(idx int) string { return fmt.Sprintf("seg-%08d.slptrc", idx) }

// encodeSegment serializes events into one SLPSEG01 segment image.
func encodeSegment(events []trace.Event) []byte {
	var perCore [256]uint64
	first, last := ^uint64(0), uint64(0)
	for i := range events {
		e := &events[i]
		perCore[e.Core]++
		if e.Cycle < first {
			first = e.Cycle
		}
		if e.Cycle > last {
			last = e.Cycle
		}
	}
	if len(events) == 0 {
		first = 0
	}
	ncores := 0
	for _, n := range perCore {
		if n > 0 {
			ncores++
		}
	}
	buf := make([]byte, segFixedHeader+ncores*segCoreEntry+len(events)*trace.RecordSize)
	copy(buf[0:], segMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(events)))
	binary.LittleEndian.PutUint64(buf[16:], first)
	binary.LittleEndian.PutUint64(buf[24:], last)
	binary.LittleEndian.PutUint64(buf[40:], uint64(ncores))
	off := segFixedHeader
	for core, n := range perCore {
		if n == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(buf[off:], uint64(core))
		binary.LittleEndian.PutUint64(buf[off+8:], n)
		off += segCoreEntry
	}
	for i := range events {
		trace.PutRecord(buf[off:], events[i])
		off += trace.RecordSize
	}
	return buf
}

// SegmentHeader is the decoded header of one segment file.
type SegmentHeader struct {
	Count                 int
	FirstCycle, LastCycle uint64
	// CoreCounts maps core ID to the core's record count, as entries
	// ordered by core.
	CoreCounts []CoreCount
}

// CoreCount is one per-core entry of a segment header.
type CoreCount struct {
	Core  uint8
	Count uint64
}

// decodeSegment parses one segment image from data, calling fn for
// every complete record. It returns the header and, when the image ends
// early (a torn tail), the byte offset the tear was detected at with
// ok=false; the complete-record prefix has been delivered. Corrupt (as
// opposed to short) data returns an error.
func decodeSegment(data []byte, fn func(trace.Event)) (hdr SegmentHeader, tearOff int64, ok bool, err error) {
	if len(data) < segFixedHeader {
		return hdr, int64(len(data)), false, nil
	}
	if string(data[0:8]) != segMagic {
		return hdr, 0, false, fmt.Errorf("stream: bad segment magic %q", data[0:8])
	}
	count := binary.LittleEndian.Uint64(data[8:])
	hdr.FirstCycle = binary.LittleEndian.Uint64(data[16:])
	hdr.LastCycle = binary.LittleEndian.Uint64(data[24:])
	ncores := binary.LittleEndian.Uint64(data[40:])
	if ncores > 256 {
		return hdr, 0, false, fmt.Errorf("stream: segment claims %d cores", ncores)
	}
	if count > 1<<40 {
		return hdr, 0, false, fmt.Errorf("stream: segment claims %d records", count)
	}
	hdr.Count = int(count)
	off := segFixedHeader
	for i := 0; i < int(ncores); i++ {
		if off+segCoreEntry > len(data) {
			return hdr, int64(len(data)), false, nil
		}
		hdr.CoreCounts = append(hdr.CoreCounts, CoreCount{
			Core:  uint8(binary.LittleEndian.Uint64(data[off:])),
			Count: binary.LittleEndian.Uint64(data[off+8:]),
		})
		off += segCoreEntry
	}
	for i := 0; i < hdr.Count; i++ {
		if off+trace.RecordSize > len(data) {
			return hdr, int64(len(data)), false, nil
		}
		fn(trace.GetRecord(data[off:]))
		off += trace.RecordSize
	}
	return hdr, 0, true, nil
}

// writeSegmentFile writes one fsync'd segment image into dir. The
// containing directory is synced too, so a completed segment survives a
// crash; a crash mid-write leaves a torn tail the reader recovers from.
func writeSegmentFile(dir string, idx int, events []trace.Event) error {
	path := filepath.Join(dir, segName(idx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSegment(events)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory so newly created files are durable.
// EINVAL is tolerated: some filesystems do not support directory
// syncs. Any other failure (EIO) means the rotation may not survive a
// crash and is returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
