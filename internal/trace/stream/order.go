package stream

import (
	"slices"

	"github.com/persistmem/slpmt/internal/trace"
)

// keyed is one event with its position in the stream: (Cycle, pos) is
// its unique key in stable cycle order.
type keyed struct {
	e   trace.Event
	pos int
}

func compareKeyed(a, b keyed) int {
	switch {
	case a.e.Cycle < b.e.Cycle:
		return -1
	case a.e.Cycle > b.e.Cycle:
		return 1
	}
	return a.pos - b.pos
}

// ByCycle delivers the stream's events to fn sorted by cycle, stably
// (write order breaks ties), holding at most two segments' worth of
// them however long the stream: the window is the first segment's
// event count, which every segment but the last fills. Cores' events go back
// in cycle across segments, so each pass over the segments keeps the
// window smallest keys after the last one delivered, sorts and
// delivers them; a pass that keeps fewer is the last. Passes skip the
// segments whose header's cycle span lies wholly before the last key
// delivered or, once their window is full, wholly after it. A torn
// final segment contributes its complete-record prefix, as in Iter.
func (d *Dir) ByCycle(fn func(trace.Event)) error {
	if len(d.segs) == 0 {
		return nil
	}
	var first Stats
	if _, err := d.readSegment(0, &first, func(trace.Event) {}); err != nil {
		return err
	}
	window := max(first.Events, 1)
	hdrs := make([]SegmentHeader, len(d.segs)) // filled by the first pass
	buf := make([]keyed, 0, 2*window)
	var last, cut keyed // the last key delivered; the end of a full window
	for pass := 0; ; pass++ {
		buf = buf[:0]
		pos, full := 0, false
		for i := range d.segs {
			if h := hdrs[i]; pass > 0 && (h.LastCycle < last.e.Cycle || full && h.FirstCycle > cut.e.Cycle) {
				pos += h.Count
				continue
			}
			var err error
			hdrs[i], err = d.readSegment(i, &Stats{}, func(e trace.Event) {
				k := keyed{e, pos}
				pos++
				if pass > 0 && compareKeyed(k, last) <= 0 || full && compareKeyed(k, cut) >= 0 {
					return
				}
				if buf = append(buf, k); len(buf) == cap(buf) {
					slices.SortFunc(buf, compareKeyed)
					buf, cut, full = buf[:window], buf[window-1], true
				}
			})
			if err != nil {
				return err
			}
		}
		slices.SortFunc(buf, compareKeyed)
		for _, k := range buf[:min(len(buf), window)] {
			fn(k.e)
		}
		if len(buf) < window {
			return nil
		}
		last = buf[window-1]
	}
}
