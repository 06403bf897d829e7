// Command slpmttrace reads the SLPSEG01 trace-stream directories that
// slpmtbench -trace-stream writes. By default it dumps the per-segment
// headers, the first -records events, and the streamed latency
// summary; -follow tails a still-growing stream, printing segments as
// their rotation fsync completes and exiting when the writer drops the
// CLOSED sentinel. -critpath replays the binlog through the causal
// critical-path analyzer: the blame/slack/hot-line report slpmtbench
// computes live, over a saved stream with no rerun. Crash images are
// inspected with slpmtcrash -point.
//
//	slpmttrace -trace-stream out/
//	slpmttrace -trace-stream out/ -follow -records 0
//	slpmttrace -trace-stream out/ -critpath -hotlines 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "slpmttrace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slpmttrace", flag.ContinueOnError)
	var (
		streamD  = fs.String("trace-stream", "", "SLPSEG01 trace-stream directory to read (from slpmtbench -trace-stream)")
		follow   = fs.Bool("follow", false, "tail the stream live as segments complete; exits when the writer closes it")
		crit     = fs.Bool("critpath", false, "replay the binlog through the causal critical-path analyzer and print the blame/slack/hot-line report")
		hotlines = fs.Int("hotlines", 10, "with -critpath: contended cache lines to rank")
		maxRecs  = fs.Int("records", 16, "max events to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streamD == "" {
		return errors.New("-trace-stream is required (crash images are inspected with slpmtcrash -point)")
	}
	if *crit {
		return streamCritPath(stdout, *streamD, *hotlines)
	}
	return inspectStream(stdout, *streamD, *follow, *maxRecs)
}

// inspectStream dumps an SLPSEG01 stream directory (written by
// slpmtbench -trace-stream): per-segment headers, the first maxEvents
// events, and the streamed latency summary. With follow it tails the
// stream instead — segments print as they complete (their rotation
// fsync has happened) and the summary prints once the writer drops the
// CLOSED sentinel. A torn final segment is reported but not fatal: the
// durable prefix is still summarized, matching crash-recovery
// semantics.
func inspectStream(out io.Writer, dir string, follow bool, maxEvents int) error {
	d, err := stream.Open(dir)
	if err != nil {
		return err
	}
	if !follow {
		segs := d.Segments()
		fmt.Fprintf(out, "stream %s: %d segments, closed=%v\n", dir, len(segs), d.Closed())
		for i, name := range segs {
			hdr, err := d.Header(i)
			if err != nil {
				fmt.Fprintf(out, "segment %s: %v\n", name, err)
				continue
			}
			fmt.Fprintf(out, "segment %s: %d events, cycles [%d,%d], dropped=%d\n",
				name, hdr.Count, hdr.FirstCycle, hdr.LastCycle, hdr.Dropped)
			for _, cc := range hdr.CoreCounts {
				fmt.Fprintf(out, "  core %d: %d events\n", cc.Core, cc.Count)
			}
		}
	} else {
		fmt.Fprintf(out, "following stream %s (exits when the writer closes it)\n", dir)
	}

	summ := stream.NewSummarizer()
	printed := 0
	consume := func(e trace.Event) {
		summ.Consume(e)
		if printed < maxEvents {
			fmt.Fprintf(out, "  [%3d] core=%d cycle=%-10d %-14s addr=%#x arg=%d\n",
				printed, e.Core, e.Cycle, e.Kind, e.Addr, e.Arg)
			printed++
		}
	}
	fmt.Fprintf(out, "\nfirst %d events:\n", maxEvents)
	var st *stream.Stats
	if follow {
		st, err = d.Follow(consume, 0)
	} else {
		st, err = d.Iter(consume)
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
	fmt.Fprintf(out, "\n%d events over %d segments (dropped=%d, closed=%v)\n",
		st.Events, st.Segments, st.Dropped, st.Closed)
	fmt.Fprint(out, summ.Summary(st.Events, st.Dropped).String())
	return nil
}

// streamCritPath replays a saved binlog through the causal
// critical-path analyzer — post-hoc analysis of an earlier streamed
// run without rerunning the workload. The stream must be complete:
// dropped or torn events would make the causal replay unsound, so
// both are hard errors.
func streamCritPath(out io.Writer, dir string, hotN int) error {
	d, err := stream.Open(dir)
	if err != nil {
		return err
	}
	cp := critpath.New()
	st, err := stream.Feed(d, cp)
	if err != nil {
		return err
	}
	if st.Torn != nil {
		return fmt.Errorf("torn final segment: %v (the causal replay needs a complete stream)", st.Torn)
	}
	an, err := cp.Analyze(st.Dropped)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stream %s: %d events over %d segments, closed=%v\n\n",
		dir, st.Events, st.Segments, st.Closed)
	fmt.Fprint(out, an.Render(hotN))
	return nil
}
