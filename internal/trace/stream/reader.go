package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/persistmem/slpmt/internal/trace"
)

// TornError reports a stream whose final segment ended mid-write (a
// crash tear). It carries the position so the tear is diagnosable; the
// durable prefix — every complete record before it — was already
// delivered when the error is surfaced via Stats.Torn.
type TornError struct {
	Segment string // file name of the torn segment
	Offset  int64  // byte offset the tear was detected at
	Err     error  // underlying cause, when one exists
}

func (e *TornError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("stream: segment %s torn at byte %d", e.Segment, e.Offset)
	}
	return fmt.Sprintf("stream: segment %s torn at byte %d: %v", e.Segment, e.Offset, e.Err)
}

func (e *TornError) Unwrap() error { return e.Err }

// Stats summarizes one pass over a stream.
type Stats struct {
	Events   int
	Segments int  // segments read (including a torn final one)
	Closed   bool // the CLOSED sentinel was present
	// Torn is set when the final segment was truncated: the complete-
	// record prefix was delivered and iteration ended cleanly. A torn
	// non-final segment is corruption and returns a hard error instead.
	Torn *TornError
}

// Dir is an on-disk stream opened for reading.
type Dir struct {
	path   string
	segs   []string // segment file names, write order
	closed bool
}

// Open lists a stream directory. The stream need not be CLOSED; Iter
// reads whatever segments exist.
func Open(dir string) (*Dir, error) {
	d := &Dir{path: dir}
	if err := d.rescan(); err != nil {
		return nil, err
	}
	return d, nil
}

// rescan refreshes the segment list and sentinel state.
func (d *Dir) rescan() error {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return err
	}
	d.segs = d.segs[:0]
	d.closed = false
	for _, e := range ents {
		switch name := e.Name(); {
		case isSegName(name):
			d.segs = append(d.segs, name)
		case name == ClosedSentinel:
			d.closed = true
		}
	}
	sort.Strings(d.segs)
	return nil
}

// Segments returns the segment file names in write order.
func (d *Dir) Segments() []string { return append([]string(nil), d.segs...) }

// Closed reports whether the CLOSED sentinel is present.
func (d *Dir) Closed() bool { return d.closed }

// Header decodes the header of the idx'th segment.
func (d *Dir) Header(idx int) (SegmentHeader, error) {
	data, err := os.ReadFile(filepath.Join(d.path, d.segs[idx]))
	if err != nil {
		return SegmentHeader{}, err
	}
	hdr, off, ok, err := decodeSegment(data, func(trace.Event) {})
	if err != nil {
		return hdr, err
	}
	if !ok {
		return hdr, &TornError{Segment: d.segs[idx], Offset: off}
	}
	return hdr, nil
}

// Iter implements Source: it streams every event in write order through
// fn, reading one segment at a time (memory stays O(segment)). A torn
// final segment yields its complete-record prefix and sets Stats.Torn;
// a torn or corrupt earlier segment is a hard error, because fsync'd
// rotation guarantees only the final segment can legitimately tear.
func (d *Dir) Iter(fn func(trace.Event)) (*Stats, error) {
	st := &Stats{Closed: d.closed}
	for i := range d.segs {
		if _, err := d.readSegment(i, st, fn); err != nil || st.Torn != nil {
			return st, err
		}
	}
	return st, nil
}

// Follow tails a live stream: it delivers segments as they complete and
// returns when the CLOSED sentinel appears (delivering the final
// segments first) or when a poll fails. A segment is considered
// complete once a later segment or the sentinel exists — rotation is
// sequential, so that is exactly when its fsync has happened. poll <= 0
// selects 200ms.
func (d *Dir) Follow(fn func(trace.Event), poll time.Duration) (*Stats, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	st := &Stats{}
	read := 0 // segments fully delivered
	for {
		if err := d.rescan(); err != nil {
			return st, err
		}
		st.Closed = d.closed
		// Segments strictly before the last are complete; with the
		// sentinel present the last one is too.
		complete := len(d.segs)
		if !d.closed && complete > 0 {
			complete--
		}
		for ; read < complete; read++ {
			if _, err := d.readSegment(read, st, fn); err != nil || st.Torn != nil {
				return st, err
			}
		}
		if d.closed {
			return st, nil
		}
		time.Sleep(poll)
	}
}

// readSegment delivers the idx'th segment's events through fn, folds
// it into st and returns its header. A tear in the last segment is the durable prefix:
// it sets st.Torn. A tear in any earlier one is corruption and a hard
// error. (Follow never reads the last segment of a live stream, which
// is still being written.)
func (d *Dir) readSegment(idx int, st *Stats, fn func(trace.Event)) (SegmentHeader, error) {
	name := d.segs[idx]
	data, err := os.ReadFile(filepath.Join(d.path, name))
	if err != nil {
		return SegmentHeader{}, err
	}
	n := 0
	hdr, off, ok, err := decodeSegment(data, func(e trace.Event) {
		n++
		fn(e)
	})
	st.Events += n
	st.Segments++
	if err != nil {
		return hdr, fmt.Errorf("stream: segment %s: %w", name, err)
	}
	if !ok {
		torn := &TornError{Segment: name, Offset: off}
		if idx != len(d.segs)-1 {
			return hdr, torn
		}
		st.Torn = torn
		return hdr, nil
	}
	return hdr, nil
}
