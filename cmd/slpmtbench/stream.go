package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// runStreamed executes one benchmark with the streaming trace pipeline
// attached: the event stream spills into an SLPSEG01 binlog under dir
// (memory stays bounded by the spill ring plus one segment buffer),
// live telemetry snapshots land in telemetry.ndjson, and the printed
// metrics come from the online consumers. With sanitize the binlog is
// replayed through the persist-order checker, and dropped events are a
// hard error because the replay would be unsound. With crit the run
// additionally carries the causal critical-path analyzer (fed from the
// binlog) and the report lands on stdout and in dir/critpath.txt.
func runStreamed(out io.Writer, cfg bench.RunConfig, dir string, interval uint64, sanitize, crit bool, hotN int) error {
	cfg.StreamDir = dir
	cfg.StreamInterval = interval
	cfg.CritPath = crit
	r := bench.Run(cfg)
	if r.VerifyErr != nil {
		return fmt.Errorf("%s/%s failed verification: %v", cfg.Scheme, cfg.Workload, r.VerifyErr)
	}

	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	fmt.Fprintf(out, "streamed run: %s/%s n=%d value=%dB cores=%d seed=%d\n",
		cfg.Scheme, cfg.Workload, r.N, r.ValueSize, cores, cfg.Seed)
	fmt.Fprintf(out, "cycles: %d\n", r.Cycles)

	d, err := stream.Open(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "binlog: %d segments in %s, closed=%v\n", len(d.Segments()), dir, d.Closed())
	fmt.Fprintf(out, "events: %d captured, %d dropped\n", r.Summary.Events, r.Summary.Dropped)
	if r.Intervals != nil {
		fmt.Fprintf(out, "telemetry: %d intervals in %s\n",
			len(r.Intervals.Intervals), filepath.Join(dir, bench.TelemetryFile))
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, r.Summary.String())
	if r.WPQ != nil {
		fmt.Fprintf(out, "\nWPQ occupancy over the run (high-water %dB, mean %dB):\n",
			r.Counters.WPQOccMaxBytes, r.Counters.WPQOccAvgBytes)
		fmt.Fprint(out, r.WPQ.String())
	}

	if sanitize {
		if r.Summary.Dropped > 0 {
			return fmt.Errorf("streamed run dropped %d events; the sanitizer replay is unsound", r.Summary.Dropped)
		}
		zs := stream.NewSanitize()
		if _, err := stream.Feed(d, zs); err != nil {
			return err
		}
		rep := zs.Report(r.Summary.Dropped)
		fmt.Fprintf(out, "\nstreamed sanitizer: %d events replayed, %d transactions, %d aborts\n",
			rep.Events, rep.Transactions, rep.Aborts)
		if !rep.Clean() {
			for _, v := range rep.Violations {
				fmt.Fprintf(out, "violation: %s\n", v)
			}
			return fmt.Errorf("%d persist-order violations", rep.Total)
		}
		fmt.Fprintln(out, "persist-order sanitizer: 0 violations")
	}
	if crit {
		rep := r.CritPath.Render(hotN)
		fmt.Fprintf(out, "\nstreamed critical path (analyzer fed from the binlog):\n%s", rep)
		repPath := filepath.Join(dir, "critpath.txt")
		if err := os.WriteFile(repPath, []byte(rep), 0o644); err != nil {
			return fmt.Errorf("critpath report: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", repPath)
	}
	return nil
}
