package main

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// replay reads the saved SLPSEG01 binlog in dir without running
// anything: per-segment headers and the first records events (with
// follow, it tails a stream still being written and reads it as its
// segments complete, until the writer closes it), then the event
// sections s asks for, printed as the live run printed them. A torn
// final segment is reported but not fatal: the durable prefix is still
// summarized, matching crash-recovery semantics; only the critical
// path, whose causal replay needs every event, refuses it.
func replay(out io.Writer, dir string, records int, follow bool, s single) error {
	d, err := stream.Open(dir)
	if err != nil {
		return err
	}
	if follow {
		fmt.Fprintf(out, "following stream %s (exits when the writer closes it)\n", dir)
	} else {
		segs := d.Segments()
		fmt.Fprintf(out, "stream %s: %d segments, closed=%v\n", dir, len(segs), d.Closed())
		for i, name := range segs {
			hdr, err := d.Header(i)
			if err != nil {
				fmt.Fprintf(out, "segment %s: %v\n", name, err)
				continue
			}
			fmt.Fprintf(out, "segment %s: %d events, cycles [%d,%d]\n",
				name, hdr.Count, hdr.FirstCycle, hdr.LastCycle)
			for _, cc := range hdr.CoreCounts {
				fmt.Fprintf(out, "  core %d: %d events\n", cc.Core, cc.Count)
			}
		}
	}

	printed := 0
	show := func(e trace.Event) {
		if printed < records {
			fmt.Fprintf(out, "  [%3d] core=%d cycle=%-10d %-14s addr=%#x arg=%d\n",
				printed, e.Core, e.Cycle, e.Kind, e.Addr, e.Arg)
			printed++
		}
	}
	fmt.Fprintf(out, "\nfirst %d events:\n", records)
	var st *stream.Stats
	if follow {
		st, err = d.Follow(show, 0)
	} else {
		st, err = d.Iter(show)
	}
	if err != nil {
		return err
	}
	if st.Events > printed {
		fmt.Fprintf(out, "  ... %d more\n", st.Events-printed)
	}
	if st.Torn != nil {
		fmt.Fprintf(out, "\ntorn final segment (crash tear): %v\n", st.Torn)
		fmt.Fprintf(out, "durable prefix of %d complete events recovered\n", st.Events)
	}

	// A binlog holds what its run's tracer recorded; slpmtbench's runs
	// record every kind.
	r := bench.Result{RunConfig: bench.RunConfig{CritPath: s.critpath}}
	if err := r.ReduceEvents(d, trace.AllKinds); err != nil {
		return err
	}
	return printEvents(out, d, &r, s)
}
