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
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

func main() {
	var (
		workload = flag.String("workload", "hashtable", fmt.Sprintf("workload %v", workloads.Names()))
		scheme   = flag.String("scheme", schemes.SLPMT, fmt.Sprintf("scheme %v", schemes.Names()))
		n        = flag.Int("n", 60, "insert operations per run")
		value    = flag.Int("value", 64, "value size in bytes")
		cores    = flag.Int("cores", 1, "simulated cores (crash points sweep the machine-wide persist total)")
		seed     = flag.Uint64("seed", 0, "seed for the deterministic operation stream")
		stride   = flag.Uint64("stride", 7, "crash every stride-th persist event")
		maxPts   = flag.Int("max", 0, "cap on crash points (0 = all)")
		mixed    = flag.Bool("mixed", false, "interleave updates and deletes with the inserts")
		all      = flag.Bool("all", false, "run every workload")
		parallel = flag.Int("parallel", 0, "workers for crash points (0 = GOMAXPROCS, 1 = serial; results identical)")
		sockets  = flag.Int("sockets", 0, "PM sockets: crash and recover on the multi-device sharded-heap topology (0 or 1 = single device)")
	)
	flag.Parse()

	targets := []string{*workload}
	if *all {
		targets = workloads.Names()
	}
	fail := false
	for _, w := range targets {
		res, err := recovery.RunCampaign(recovery.CampaignConfig{
			Workload:  w,
			Scheme:    *scheme,
			N:         *n,
			ValueSize: *value,
			Seed:      *seed,
			Cores:     *cores,
			Sockets:   *sockets,
			Mixed:     *mixed,
			Stride:    *stride,
			MaxPoints: *maxPts,
			Parallel:  *parallel,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%-10s FAIL: %v\n", w, err)
			fail = true
			continue
		}
		fmt.Printf("%-10s OK: %d crash points over %d persist events; %d log records applied; "+
			"%d in-flight txns found durable; %d B leaked memory collected\n",
			w, res.PointsTested, res.TotalPersistEvents, res.RecordsApplied,
			res.PendingAccepted, res.LeakedBytes)
	}
	if fail {
		os.Exit(1)
	}
}
