// Command slpmtcrash runs crash-injection campaigns: it executes a
// workload repeatedly, crashing at successive persistent-memory write
// events, and verifies after each crash that recovery (undo-log
// application, structure fix-up, heap garbage collection) restores a
// durable state consistent with the committed transactions.
//
// Usage:
//
//	slpmtcrash -workload hashtable -scheme SLPMT -n 60 -stride 7
//	slpmtcrash -all              # every workload under SLPMT
//	slpmtcrash -cores 2 -seed 3  # 2-core cluster, alternate key stream
//	slpmtcrash -commit-window 4 -workload rbtree -scheme SLPMT-redo -n 40 -stride 1
//
// -point N runs the crash point a failing campaign names, alone and with
// the campaign's flags unchanged: it dumps the image before recovery
// (root directory; every core's log header and records, old= payloads
// under undo, new= under redo) and gives the campaign's verdict and
// error text for that point:
//
//	slpmtcrash -workload rbtree -scheme SLPMT-redo -n 60 -point 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != errFailed {
			fmt.Fprintf(os.Stderr, "slpmtcrash: %v\n", err)
		}
		os.Exit(1)
	}
}

// errFailed reports failures whose FAIL lines run has printed.
var errFailed = errors.New("crash campaign failed")

// run parses args and runs the campaigns, or inspects the one -point,
// printing results to stdout and FAIL lines to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	var cfg recovery.CampaignConfig
	fs := flag.NewFlagSet("slpmtcrash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Workload, "workload", "hashtable", fmt.Sprintf("workload %v", workloads.Names()))
	fs.StringVar(&cfg.Scheme, "scheme", schemes.SLPMT, fmt.Sprintf("scheme %v", schemes.Names()))
	fs.IntVar(&cfg.N, "n", 60, "insert operations per run")
	fs.IntVar(&cfg.ValueSize, "value", 64, "value size in bytes")
	fs.IntVar(&cfg.Cores, "cores", 1, "simulated cores (crash points sweep the machine-wide persist total)")
	fs.Uint64Var(&cfg.Seed, "seed", 0, "seed for the deterministic operation stream")
	fs.Uint64Var(&cfg.Stride, "stride", 7, "crash every stride-th persist event")
	fs.IntVar(&cfg.MaxPoints, "max", 0, "cap on crash points (0 = all)")
	fs.BoolVar(&cfg.Mixed, "mixed", false, "interleave updates and deletes with the inserts")
	all := fs.Bool("all", false, "run every workload")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "workers for crash points (0 = GOMAXPROCS, 1 = serial; results identical)")
	fs.IntVar(&cfg.Sockets, "sockets", 0, "PM sockets: crash and recover on the multi-device sharded-heap topology (0 or 1 = single device)")
	fs.IntVar(&cfg.CommitWindow, "commit-window", 0, "group-commit window W (0 or 1 = per-transaction protocol)")
	point := fs.Uint64("point", 0, "inspect this one crash point: dump its image and report the campaign's verdict for it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *point != 0 {
		if *all {
			return errors.New("-point inspects one workload's crash point; it does not combine with -all")
		}
		return inspectPoint(stdout, stderr, cfg, *point)
	}

	targets := []string{cfg.Workload}
	if *all {
		targets = workloads.Names()
	}
	fail := false
	for _, w := range targets {
		cfg.Workload = w
		res, err := recovery.RunCampaign(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "%-10s FAIL: %v\n", w, err)
			fail = true
			continue
		}
		fmt.Fprintf(stdout, "%-10s OK: %d crash points over %d persist events; %d log records applied; "+
			"%d in-flight txns found durable; %d B leaked memory collected\n",
			w, res.PointsTested, res.TotalPersistEvents, res.RecordsApplied,
			res.PendingAccepted, res.LeakedBytes)
	}
	if fail {
		return errFailed
	}
	return nil
}

// inspectPoint runs crash point point of cfg's campaign alone, dumps
// its image before recovery, and prints its verdict as the campaign
// prints a workload's.
func inspectPoint(stdout, stderr io.Writer, cfg recovery.CampaignConfig, point uint64) error {
	img, crashed, res, err := recovery.RunPoint(cfg, point)
	if img == nil {
		return err
	}
	if !crashed {
		return fmt.Errorf("crash point %d is past the run's %d persist events", point, res.TotalPersistEvents)
	}
	cores, sockets := max(cfg.Cores, 1), max(cfg.Sockets, 1)
	fmt.Fprintf(stdout, "crash point %d: %s under %s, %d ops, cores=%d sockets=%d commit-window=%d\n\n",
		point, cfg.Workload, cfg.Scheme, cfg.N, cores, sockets, max(cfg.CommitWindow, 1))
	dump(stdout, img, cores, sockets)
	if err != nil {
		fmt.Fprintf(stderr, "%-10s FAIL: %v\n", cfg.Workload, err)
		return errFailed
	}
	fmt.Fprintf(stdout, "\n%-10s OK: crash point %d; %d log records applied; "+
		"%d in-flight txns found durable; %d B leaked memory collected\n",
		cfg.Workload, point, res.RecordsApplied, res.PendingAccepted, res.LeakedBytes)
	return nil
}

// dump prints a crash image's root directory and every core's hardware
// log: its header and its first 16 parseable records.
func dump(out io.Writer, img *pmem.Image, cores, sockets int) {
	layouts := mem.MultiLayoutSockets(img.Size(), cores, sockets)
	fmt.Fprintln(out, "root directory:")
	for i, nm := range []string{"main", "meta", "count", "movesrc", "aux"} {
		v := img.ReadU64(layouts[0].RootBase + mem.Addr(i*8))
		fmt.Fprintf(out, "  slot %d (%-7s) = %#x (%d)\n", i, nm, v, v)
	}
	for core, layout := range layouts {
		raw := make([]byte, layout.LogSize)
		img.Read(layout.LogBase, raw)
		hdr := logfmt.DecodeHeader(raw)
		state := map[uint64]string{logfmt.StateIdle: "idle", logfmt.StateActive: "ACTIVE", logfmt.StateCommitted: "committed"}[hdr.State]
		// mode and what its records hold: old values under undo, new under redo
		mode := map[uint64][2]string{logfmt.ModeUndo: {"undo", "old"}, logfmt.ModeRedo: {"redo", "new"}}[hdr.Mode]
		fmt.Fprintf(out, "\nhardware log (core %d): txn seq=%d state=%s mode=%s epoch=%d committed-to=%d watermark=%d\n",
			core, hdr.Seq, state, mode[0], hdr.Epoch, hdr.CommittedTo, hdr.Watermark)
		// An epoch stream interleaves every transaction of its window, so
		// only the header's region bounds delimit it.
		recs, err := logfmt.ParseRecords(raw, hdr.Seq)
		if hdr.CommittedTo >= logfmt.RecordsStart {
			recs, err = logfmt.ParseRegion(raw, logfmt.RecordsStart, hdr.Watermark)
		}
		if err != nil {
			fmt.Fprintf(out, "  record stream: %v\n", err)
		}
		fmt.Fprintf(out, "  %d parseable records:\n", len(recs))
		for i, r := range recs {
			if i == 16 {
				fmt.Fprintf(out, "  ... %d more\n", len(recs)-i)
				break
			}
			fmt.Fprintf(out, "  [%3d] addr=%#08x len=%-2d %s=% x\n", i, r.Addr, len(r.Data), mode[1], r.Data[:min(len(r.Data), 16)])
		}
	}
}
