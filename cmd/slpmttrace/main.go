// Command slpmttrace inspects the durable state of a (optionally
// crash-interrupted) workload run: the hardware log header, the
// parseable record stream, the root directory, and a recovery dry run.
// It is the debugging companion to slpmtcrash.
//
// Usage:
//
//	slpmttrace -workload rbtree -n 20                # clean run
//	slpmttrace -workload rbtree -n 20 -crash 150     # crash at event 150
//	slpmttrace -workload hashtable -crash 90 -recover
//	slpmttrace -cores 2 -crash 120 -recover          # 2-core cluster: every
//	                                                 # per-core log is dumped
//
// The -cores/-seed knobs match slpmtbench: the deterministic key stream
// is sharded round-robin across a cluster of that many cores, and the
// crash point counts machine-wide persist events.
//
// -trace-stream switches to binlog inspection mode: instead of
// executing a run, the given SLPSEG01 stream directory (written by
// slpmtbench -trace-stream) is dumped — per-segment headers, the first
// -records events, and the streamed latency summary. -follow tails a
// still-growing stream, printing segments as their rotation fsync
// completes and exiting when the writer drops the CLOSED sentinel:
//
//	slpmttrace -trace-stream out/
//	slpmttrace -trace-stream out/ -follow -records 0
//
// -critpath replays the binlog through the causal critical-path
// analyzer instead of dumping records: the same post-hoc
// blame/slack/hot-line report slpmtbench computes live, but over a
// saved stream directory — no rerun needed:
//
//	slpmttrace -trace-stream out/ -critpath -hotlines 10
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
	"github.com/persistmem/slpmt/internal/ycsb"
)

func main() {
	var (
		workload = flag.String("workload", "hashtable", fmt.Sprintf("workload %v", workloads.Names()))
		scheme   = flag.String("scheme", schemes.SLPMT, fmt.Sprintf("scheme %v", schemes.Names()))
		n        = flag.Int("n", 20, "insert operations")
		value    = flag.Int("value", 32, "value size in bytes")
		cores    = flag.Int("cores", 1, "simulated cores (crash counts machine-wide persist events)")
		seed     = flag.Uint64("seed", 0, "seed for the deterministic key stream")
		crash    = flag.Uint64("crash", 0, "crash after this persist event (0 = run to completion)")
		doRec    = flag.Bool("recover", false, "run recovery on the image and report")
		maxRecs  = flag.Int("records", 16, "max log records to print")
		streamD  = flag.String("trace-stream", "", "inspect an SLPSEG01 trace-stream directory (from slpmtbench -trace-stream) instead of executing a run")
		follow   = flag.Bool("follow", false, "with -trace-stream: tail the stream live as segments complete; exits when the writer closes it")
		critpath = flag.Bool("critpath", false, "with -trace-stream: replay the binlog through the causal critical-path analyzer and print the blame/slack/hot-line report")
		hotlines = flag.Int("hotlines", 10, "with -critpath: contended cache lines to rank")
	)
	flag.Parse()
	if *cores < 1 {
		*cores = 1
	}
	if *streamD != "" {
		var err error
		if *critpath {
			err = streamCritPath(os.Stdout, *streamD, *hotlines)
		} else {
			err = inspectStream(os.Stdout, *streamD, *follow, *maxRecs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "slpmttrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	img, crashed, events := execute(*workload, *scheme, *n, *value, *cores, *seed, *crash)
	fmt.Printf("run: %s under %s, %d ops, %d persist events, crashed=%v\n\n",
		*workload, *scheme, *n, events, crashed)

	layouts := mem.MultiLayout(img.Size(), *cores)

	// Root directory.
	fmt.Println("root directory:")
	names := []string{"main", "meta", "count", "movesrc", "aux"}
	for i, nm := range names {
		v := img.ReadU64(layouts[0].RootBase + mem.Addr(i*8))
		fmt.Printf("  slot %d (%-7s) = %#x (%d)\n", i, nm, v, v)
	}

	// Per-core log header + records.
	for core, layout := range layouts {
		raw := make([]byte, layout.LogSize)
		img.Read(layout.LogBase, raw)
		hdr := logfmt.DecodeHeader(raw)
		state := map[uint64]string{0: "idle", 1: "ACTIVE", 2: "committed"}[hdr.State]
		mode := map[uint64]string{1: "undo", 2: "redo"}[hdr.Mode]
		tag := ""
		if *cores > 1 {
			tag = fmt.Sprintf(" (core %d)", core)
		}
		fmt.Printf("\nhardware log%s: txn seq=%d state=%s mode=%s watermark=%d\n",
			tag, hdr.Seq, state, mode, hdr.Watermark)
		recs, err := logfmt.ParseRecords(raw, hdr.Seq)
		if err != nil {
			fmt.Printf("  record stream: %v\n", err)
		}
		fmt.Printf("  %d parseable records:\n", len(recs))
		for i, r := range recs {
			if i >= *maxRecs {
				fmt.Printf("  ... %d more\n", len(recs)-i)
				break
			}
			fmt.Printf("  [%3d] addr=%#08x len=%-2d old=% x\n", i, r.Addr, len(r.Data), head(r.Data, 16))
		}
	}

	if !*doRec {
		return
	}
	fmt.Println("\nrecovery dry run:")
	w := workloads.MustNew(*workload)
	rec, ok := w.(workloads.Recoverable)
	if !ok {
		fmt.Println("  workload is not Recoverable")
		os.Exit(1)
	}
	rep, heap, err := recovery.RecoverN(img, rec, *cores)
	if err != nil {
		fmt.Printf("  FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  %s\n", rep)
	_, _, _, live := heap.Stats()
	fmt.Printf("  rebuilt heap: %d live bytes\n", live)
}

func head(p []byte, n int) []byte {
	if len(p) > n {
		return p[:n]
	}
	return p
}

// execute runs the deterministic key stream sharded round-robin across
// a cores-wide cluster (see bench.Shard), crashing when the machine-wide
// persist total hits the requested event (whichever core issues it).
func execute(workload, scheme string, n, value, cores int, seed, crash uint64) (img *pmem.Image, crashed bool, events uint64) {
	w := workloads.MustNew(workload)
	cl := slpmt.NewCluster(cores, slpmt.Options{Scheme: scheme, ComputeCyclesPerOp: w.ComputeCost()})
	cl.Plat.CrashAfterTotal = crash
	run := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(machine.CrashSignal); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		if err := w.Setup(cl.Use(0)); err != nil {
			return err
		}
		load := ycsb.Load{N: n, ValueSize: value, Seed: seed}
		keys := load.Keys()
		var buf []byte
		return bench.Shard(cl, len(keys), func(sys *slpmt.System, i int) error {
			buf = load.ValueInto(buf, keys[i])
			return w.Insert(sys, keys[i], buf)
		})
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "slpmttrace: %v\n", err)
		os.Exit(1)
	}
	return cl.Plat.Crash(), crashed, cl.Plat.PersistTotal
}
