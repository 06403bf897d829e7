package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/workloads"
)

// NumaSockets is the socket counts the NUMA experiment sweeps.
var NumaSockets = []int{1, 2, 4}

// NumaCores is the core counts the NUMA experiment runs each socket
// count at.
var NumaCores = []int{2, 4}

// NumaRemoteNanos is the local/remote-ratio sub-sweep: the per-hop
// interconnect latency of a remote persist enqueue (remote fills pay
// twice the value). 60 ns is roughly a modern two-socket QPI/UPI hop.
var NumaRemoteNanos = []uint64{30, 60, 120, 240}

// Numa runs the multi-device topology study: each scheme × structure
// (the full eight-workload suite, not just the STAMP kernels) runs at 2
// and 4 cores over 1, 2, and 4 PM sockets. Every socket is its own
// device — private write-pending queue, banks, and drain clock — behind
// a hop-linear interconnect distance matrix; cores are pinned round-
// robin to home sockets, and the heap is sharded so each core allocates
// from its home socket's arena. Reported per cell: makespan speedup
// over the same configuration on a single device, the cycle share spent
// on the WPQ, and the share paid to cross-socket hops (the wpq.remote
// cause). A final sub-sweep varies the remote-hop latency to show where
// the interconnect eats the parallelism the extra write queues bought.
//
// What to expect (and why the suite matters): splitting the persist
// traffic over per-socket devices removes queueing — the stream-tail
// backlog behind log.sync and the WPQ backpressure — but not the serial
// per-line commit flush, which pays full service latency per write-set
// line regardless of how many devices exist. Write-intensive structures
// (kv-ctree, dlist, kv-rtree, hashtable) are backlog-dominated and
// clear 1.5x at 4 cores / 2 sockets; pointer-chasing kernels (rbtree,
// avl) spend ~25% of an op in the serial flush and are Amdahl-bounded
// near 1.2-1.35x until 4 sockets gives every core a private device.
func Numa(out io.Writer, base bench.RunConfig) ([]bench.Result, error) {
	ss := ScalingSchemes()
	ws := workloads.Names()

	key := func(s, w string, c, k int) bench.RunConfig {
		cfg := cell(base, s, w)
		cfg.Cores = c
		cfg.Sockets = k
		cfg.Metrics = true
		cfg.Profile = true
		return cfg
	}
	cfgs := make([]bench.RunConfig, 0, len(ss)*len(ws)*len(NumaCores)*len(NumaSockets))
	for _, s := range ss {
		for _, w := range ws {
			for _, c := range NumaCores {
				for _, k := range NumaSockets {
					cfgs = append(cfgs, key(s, w, c, k))
				}
			}
		}
	}
	var sw sweep
	if _, err := sw.add(bench.RunAll(cfgs)); err != nil {
		return nil, err
	}

	cols := []string{"scheme", "workload", "cores"}
	for _, k := range NumaSockets {
		cols = append(cols, fmt.Sprintf("%ds", k))
	}
	tsp := bench.NewTable(
		fmt.Sprintf("NUMA: makespan speedup over the single-device run (%dB values, %d ops)",
			valueOf(base), opsOf(base)),
		cols...)
	twpq := bench.NewTable(
		"NUMA: cycle share spent on the WPQ (enqueue + stalls + sync persists + remote hops)",
		cols...)
	trem := bench.NewTable(
		"NUMA: cycle share paid to cross-socket hops (wpq.remote)",
		cols...)
	tsig := bench.NewTable(
		"NUMA: lazy-conflict pressure (signature hits / txid cross-accesses / forced lazy-line persists)",
		cols...)
	// The 4-core 2-socket speedups, per scheme — the experiment's
	// acceptance headline: the geomean over the suite plus the best
	// structure, which shows what the topology buys when the persist
	// traffic is actually partitionable.
	headline := map[string][]float64{}
	type peak struct {
		workload string
		speedup  float64
	}
	best := map[string]peak{}
	for _, s := range ss {
		for _, w := range ws {
			for _, c := range NumaCores {
				rowS := []string{s, w, fmt.Sprint(c)}
				rowW := []string{s, w, fmt.Sprint(c)}
				rowR := []string{s, w, fmt.Sprint(c)}
				rowG := []string{s, w, fmt.Sprint(c)}
				one := sw.at(key(s, w, c, 1))
				for _, k := range NumaSockets {
					r := sw.at(key(s, w, c, k))
					sp := bench.Speedup(one, r)
					rowS = append(rowS, bench.Fx(sp))
					rowW = append(rowW, bench.Pct(wpqShare(r)))
					rowR = append(rowR, bench.Pct(remoteShare(r)))
					rowG = append(rowG, fmt.Sprintf("%d/%d/%d",
						r.Counters.SignatureHits, r.Counters.TxIDCrossAccess, r.Counters.LazyLinePersists))
					if c == 4 && k == 2 {
						headline[s] = append(headline[s], sp)
						if sp > best[s].speedup {
							best[s] = peak{workload: w, speedup: sp}
						}
					}
				}
				tsp.AddRow(rowS...)
				twpq.AddRow(rowW...)
				trem.AddRow(rowR...)
				tsig.AddRow(rowG...)
			}
		}
	}
	fmt.Fprintln(out, tsp)
	fmt.Fprintln(out, twpq)
	fmt.Fprintln(out, trem)
	fmt.Fprintln(out, tsig)
	for _, s := range ss {
		fmt.Fprintf(out, "%s 4-core/2-socket speedup over single device: %.2fx geomean, best %.2fx (%s)\n",
			s, bench.GeoMean(headline[s]), best[s].speedup, best[s].workload)
	}

	// Per-socket balance at the widest configuration: with round-robin
	// core pinning and per-core arenas the persist traffic should split
	// near-evenly; a skew means remote traffic or a hot shared region.
	tb := bench.NewTable(
		"NUMA: per-socket device stats (SLPMT structures, 4 cores, 2 sockets)",
		"workload", "socket", "enqueued", "stall.cycles", "occ.max", "occ.avg")
	for _, w := range ws {
		r := sw.at(key(ss[0], w, 4, 2))
		if r.PerSocket == nil {
			continue
		}
		for _, st := range r.PerSocket.Stats {
			tb.AddRow(w, fmt.Sprint(st.Socket), fmt.Sprint(st.Enqueued),
				fmt.Sprint(st.StallCycles), fmt.Sprint(st.OccMaxBytes), fmt.Sprint(st.OccAvgBytes))
		}
	}
	fmt.Fprintln(out, tb)

	// Local/remote ratio: the headline's best-scaling structure under a
	// rising per-hop latency.
	const ratioWorkload = "kv-ctree"
	rcfgs := make([]bench.RunConfig, 0, len(NumaRemoteNanos))
	for _, ns := range NumaRemoteNanos {
		cfg := key(ss[0], ratioWorkload, 4, 2)
		cfg.RemoteNanos = ns
		rcfgs = append(rcfgs, cfg)
	}
	rres, err := sw.add(bench.RunAll(rcfgs))
	if err != nil {
		return nil, err
	}
	trat := bench.NewTable(
		fmt.Sprintf("NUMA: remote-hop latency sensitivity (%s/%s, 4 cores, 2 sockets)", ss[0], ratioWorkload),
		"remote ns/hop", "cycles", "speedup vs 1 socket", "wpq.remote share")
	one := sw.at(key(ss[0], ratioWorkload, 4, 1))
	for _, r := range rres {
		trat.AddRow(fmt.Sprint(r.RemoteNanos), fmt.Sprint(r.Cycles),
			bench.Fx(bench.Speedup(one, r)), bench.Pct(remoteShare(r)))
	}
	fmt.Fprintln(out, trat)

	fmt.Fprintln(out, "(each socket is its own device behind a hop-linear interconnect; cores are")
	fmt.Fprint(out, " pinned round-robin and allocate from home-socket arenas of the sharded heap)\n")
	return sw.results, nil
}

// remoteShare is the fraction of attributed core-cycles paid to
// cross-socket interconnect hops (the wpq.remote cause).
func remoteShare(r bench.Result) float64 {
	return share(r, r.Causes.ByName()["wpq.remote"])
}
