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

// single holds the single-run flags: the sections one run of
// -workload/-scheme prints and the files it writes. They combine
// freely.
type single struct {
	streamDir string // -trace-stream: keep the binlog, telemetry and critpath.txt here
	interval  uint64 // -interval: telemetry snapshot window in cycles
	tracePath string // -trace: Perfetto export of the binlog's events
	flamePath string // -flame: folded stacks of the cycle attribution
	sanitize  bool   // -sanitize: persist-order replay of the binlog
	critpath  bool   // -critpath: blame/slack/hot-line report
	hotlines  int    // -hotlines: hot lines the critpath report lists
}

// on reports whether any single-run flag is set.
func (s single) on() bool {
	return s.streamDir != "" || s.tracePath != "" || s.flamePath != "" || s.sanitize || s.critpath
}

// runSingle executes one run of cfg and prints the sections s asks for.
// A run that needs events streams them into an SLPSEG01 binlog, in
// -trace-stream's directory or in a temporary one removed on return,
// and every event section reads that binlog: the latency summary and
// WPQ series (always), the Perfetto export, the sanitizer replay and
// the critical path. A -flame-only run is untraced. A failed
// verification or sanitizer replay still prints every section and
// writes every file before the errors return.
func runSingle(out io.Writer, cfg bench.RunConfig, s single) error {
	cfg.Profile = s.flamePath != ""
	cfg.CritPath = s.critpath
	cfg.StreamDir, cfg.StreamInterval = s.streamDir, s.interval
	if cfg.StreamDir == "" && (s.tracePath != "" || s.sanitize || s.critpath) {
		dir, err := os.MkdirTemp("", "slpmtbench-stream-")
		if err != nil {
			return fmt.Errorf("binlog dir: %w", err)
		}
		defer os.RemoveAll(dir)
		cfg.StreamDir = dir
	}
	r := bench.Run(cfg)
	var errs []error
	if r.VerifyErr != nil {
		errs = append(errs, fmt.Errorf("%s/%s failed verification: %v", cfg.Scheme, cfg.Workload, r.VerifyErr))
	}
	fmt.Fprintf(out, "run: %s/%s n=%d value=%dB cores=%d seed=%d\ncycles: %d\n",
		cfg.Scheme, cfg.Workload, r.N, r.ValueSize, max(cfg.Cores, 1), cfg.Seed, r.Cycles)

	var d *stream.Dir
	if cfg.StreamDir != "" {
		var err error
		if d, err = stream.Open(cfg.StreamDir); err != nil {
			return err
		}
		if s.streamDir != "" {
			fmt.Fprintf(out, "binlog: %d segments in %s, closed=%v\n", len(d.Segments()), s.streamDir, d.Closed())
			fmt.Fprintf(out, "telemetry: %d intervals in %s\n",
				len(r.Intervals.Intervals), filepath.Join(s.streamDir, bench.TelemetryFile))
		}
		fmt.Fprintf(out, "events: %d captured, %d dropped\n\n%s", r.Summary.Events, r.Summary.Dropped, r.Summary.String())
		if r.WPQ != nil {
			fmt.Fprintf(out, "\nWPQ occupancy over the run (high-water %dB, mean %dB):\n%s",
				r.Counters.WPQOccMaxBytes, r.Counters.WPQOccAvgBytes, r.WPQ.String())
		}
	}

	if s.flamePath != "" {
		if err := r.Causes.Conserved(); err != nil {
			return fmt.Errorf("attribution broke conservation: %w", err)
		}
		merged := r.Causes.Merged()
		total := merged.Sum()
		fmt.Fprintf(out, "\nattributed core-cycles: %d (conservation holds on all %d cores)\n\n", total, max(cfg.Cores, 1))
		for _, name := range r.Causes.SortedNames() {
			c, _ := profile.ByName(name)
			fmt.Fprintf(out, "%6.2f%%  %-13s %12d  %s\n",
				100*float64(merged[c])/float64(total), name, merged[c], report.CauseHelp(name))
		}
		if err := writeFile(s.flamePath, func(w io.Writer) error {
			return profile.WriteFolded(w, cfg.Scheme+";"+cfg.Workload, r.Causes)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", s.flamePath)
	}

	if s.tracePath != "" {
		var evs []trace.Event
		if _, err := d.Iter(func(e trace.Event) { evs = append(evs, e) }); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		if err := writeFile(s.tracePath, func(w io.Writer) error {
			return trace.WritePerfetto(w, evs, trace.PerfettoOptions{})
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s (%d events)\n", s.tracePath, len(evs))
	}

	if s.sanitize {
		zs := stream.NewSanitize()
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
			errs = append(errs, fmt.Errorf("run dropped %d events; the sanitizer replay is unsound", r.Summary.Dropped))
		case !rep.Clean():
			errs = append(errs, fmt.Errorf("%d persist-order violations", rep.Total))
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
				return fmt.Errorf("critpath report: %w", err)
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
	}
	return errors.Join(errs...)
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
