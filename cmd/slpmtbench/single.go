package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/report"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// single holds the section flags: the sections a single run (or, for
// -trace, -sanitize and -critpath, a replay) prints and the files it
// writes. They combine freely.
type single struct {
	streamDir string // -trace-stream: keep the binlog, telemetry and critpath.txt here
	interval  uint64 // -interval: telemetry snapshot window in cycles
	tracePath string // -trace: Perfetto export of the binlog's events
	flamePath string // -flame: folded stacks of the cycle attribution
	sanitize  bool   // -sanitize: persist-order replay of the binlog
	critpath  bool   // -critpath: blame/slack/hot-line report
	hotlines  int    // -hotlines: hot lines the critpath report lists
}

// runSingle runs cfgs (one workload under one or more schemes) on the
// worker pool and prints each run in order: its counter block, then
// the sections s asks for. A run that needs events streams them into
// an SLPSEG01 binlog, in -trace-stream's directory or in a temporary
// one removed on return, and printEvents reads that binlog. A
// -flame-only run is untraced. A failed verification or sanitizer
// replay still prints every section and writes every file before the
// errors return.
func runSingle(out io.Writer, cfgs []bench.RunConfig, s single) error {
	traced := s.streamDir != "" || s.tracePath != "" || s.sanitize || s.critpath
	for i := range cfgs {
		cfg := &cfgs[i]
		cfg.Profile = s.flamePath != ""
		cfg.CritPath = s.critpath
		cfg.StreamDir, cfg.StreamInterval = s.streamDir, s.interval
		if cfg.StreamDir == "" && traced {
			dir, err := os.MkdirTemp("", "slpmtbench-stream-")
			if err != nil {
				return fmt.Errorf("binlog dir: %w", err)
			}
			defer os.RemoveAll(dir)
			cfg.StreamDir = dir
		}
	}
	results, err := bench.RunAll(cfgs)
	if err != nil {
		return err
	}
	var errs []error
	for i := range results {
		r := &results[i]
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "workload=%s scheme=%s n=%d value=%dB\n", r.Workload, r.Scheme, r.N, r.ValueSize)
		fmt.Fprintf(out, "cycles=%d (%.1f us simulated)  pm-writes=%d bytes (%.1f per op)\n",
			r.Cycles, float64(r.Cycles)/2000, r.PMWriteBytes(), float64(r.PMWriteBytes())/float64(r.N))
		fmt.Fprintf(out, "cycles/op=%.0f\n\n%s", float64(r.Cycles)/float64(r.N), r.Counters.String())
		if r.VerifyErr != nil {
			errs = append(errs, fmt.Errorf("%s/%s failed verification: %v", r.Scheme, r.Workload, r.VerifyErr))
		}
		if s.flamePath != "" {
			if err := printFlame(out, r, s.flamePath); err != nil {
				return err
			}
		}
		if !traced {
			continue
		}
		d, err := stream.Open(r.StreamDir)
		if err != nil {
			return err
		}
		if s.streamDir != "" {
			fmt.Fprintf(out, "\nbinlog: %d segments in %s, closed=%v\n", len(d.Segments()), s.streamDir, d.Closed())
			fmt.Fprintf(out, "telemetry: %d intervals in %s\n",
				len(r.Intervals.Intervals), filepath.Join(s.streamDir, bench.TelemetryFile))
		}
		errs = append(errs, printEvents(out, d, r, s))
	}
	return errors.Join(errs...)
}

// printFlame prints r's cycle attribution and writes its folded stacks
// to path.
func printFlame(out io.Writer, r *bench.Result, path string) error {
	// bench.Run has checked conservation.
	merged := r.Causes.Merged()
	total := merged.Sum()
	fmt.Fprintf(out, "\nattributed core-cycles: %d (conservation holds on all %d cores)\n\n", total, max(r.Cores, 1))
	for _, name := range r.Causes.SortedNames() {
		c, _ := profile.ByName(name)
		fmt.Fprintf(out, "%6.2f%%  %-13s %12d  %s\n",
			100*float64(merged[c])/float64(total), name, merged[c], report.CauseHelp(name))
	}
	if err := writeFile(path, func(w io.Writer) error {
		return profile.WriteFolded(w, r.Scheme+";"+r.Workload, r.Causes)
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// printEvents prints the event sections of a run whose events d holds
// and r has reduced (Result.ReduceEvents): the event count and latency
// summary, the WPQ series bucketed from d, the Perfetto export, the sanitizer replay
// and the critical path. A live run and -replay both print through it,
// so their sections match byte for byte; only a live -trace-stream run
// (s.streamDir) also writes critpath.txt. The sanitizer's verdict is
// returned after every section is printed.
func printEvents(out io.Writer, d *stream.Dir, r *bench.Result, s single) error {
	fmt.Fprintf(out, "\nevents: %d captured, %d dropped\n\n%s", r.Summary.Events, r.Summary.Dropped, r.Summary.String())
	wpq, err := stream.BucketWPQ(d, 16)
	if err != nil {
		return fmt.Errorf("trace wpq: %w", err)
	}
	if wpq != nil {
		fmt.Fprintf(out, "\nWPQ occupancy over the run:\n%s", wpq.String())
	}

	if s.tracePath != "" {
		if err := writeFile(s.tracePath, func(w io.Writer) error {
			return trace.WritePerfetto(w, d.ByCycle, trace.PerfettoOptions{})
		}); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		fmt.Fprintf(out, "wrote %s (%d events)\n", s.tracePath, r.Summary.Events)
	}

	var verdict error
	if s.sanitize {
		zs := trace.NewSanitizer()
		if _, err := stream.Feed(d, zs); err != nil {
			return fmt.Errorf("sanitizer replay: %w", err)
		}
		rep := zs.Report(r.Summary.Dropped)
		fmt.Fprintf(out, "\nsanitizer: %d events replayed, %d transactions, %d aborts\n",
			rep.Events, rep.Transactions, rep.Aborts)
		for _, v := range rep.Violations {
			fmt.Fprintf(out, "violation: %s\n", v)
		}
		switch {
		case rep.Truncated:
			verdict = fmt.Errorf("run dropped %d events; the sanitizer replay is unsound", r.Summary.Dropped)
		case !rep.Clean():
			verdict = fmt.Errorf("%d persist-order violations", rep.Total)
		default:
			fmt.Fprintln(out, "persist-order sanitizer: 0 violations")
		}
	}

	if s.critpath {
		rep := r.CritPath.Render(s.hotlines)
		fmt.Fprintf(out, "\n%s", rep)
		if s.streamDir != "" {
			path := filepath.Join(s.streamDir, "critpath.txt")
			if err := os.WriteFile(path, []byte(rep), 0o644); err != nil {
				return errors.Join(verdict, fmt.Errorf("critpath report: %w", err))
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
	}
	return verdict
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
