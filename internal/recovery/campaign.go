package recovery

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// CampaignConfig parameterizes a crash-injection campaign: the workload
// is run repeatedly, each run crashed at a different persist event, and
// the recovered image is verified against the set of transactions known
// committed at the crash point.
type CampaignConfig struct {
	Workload  string
	Scheme    string
	N         int // operations per run
	ValueSize int
	Seed      uint64
	// Cores is the simulated core count of each point's cluster (0 =
	// 1): the op stream is sharded round-robin and the crash point is
	// counted against the machine-wide persist total. Mixed is
	// insert-only cross-core and therefore rejected with Cores > 1.
	Cores int
	// Sockets runs each point on a multi-socket PM topology, where
	// every core's heap handle allocates from its home-socket arena (0
	// or 1 = the single-device machine). The verifier then additionally
	// asserts every arena's live extents reconciled with the durable
	// prefix (txheap.Heap.Check).
	Sockets int
	// Mixed interleaves updates and deletes with the inserts (for
	// workloads implementing Mutable); default is the paper's
	// insert-only ycsb-load.
	Mixed bool
	// CommitWindow is the group-commit window W forwarded to the
	// engine (0 or 1 = the per-transaction protocol). The verifier
	// accepts an image that equals the oracle after one of a window of
	// completed-operation prefixes: at W=1 the completed operations
	// with the in-flight one reverted or committed; with W > 1, where a
	// crash may revert every transaction since the last epoch close,
	// any of the cores*W+1 prefixes nearest the crash. A torn epoch
	// (some of a window's transactions applied, others not) matches no
	// prefix and fails, which is exactly the all-or-nothing property
	// under test.
	CommitWindow int
	// Stride samples every Stride-th persist event (1 = every event).
	Stride uint64
	// MaxPoints caps the number of crash points tested (0 = no cap).
	MaxPoints int
	// Parallel is the worker count bench.ForEachWorkers runs the crash
	// points on (0 = its default, GOMAXPROCS; 1 = each point in turn on
	// the calling goroutine). Each point is an independent
	// deterministic run, so results and errors are identical at any
	// setting.
	Parallel int
}

// Validate rejects the configurations no crash driver runs: the run
// fields outside what a benchmark run accepts (bench.RunConfig.Validate:
// an unknown Scheme or Workload, negative N, ValueSize, CommitWindow or
// Sockets, Cores outside 0..slpmt.MaxCores, group commit on more cores
// than its descriptor holds), and Mixed streams across cores.
func (cfg CampaignConfig) Validate() error {
	shape := bench.RunConfig{Scheme: cfg.Scheme, Workload: cfg.Workload, N: cfg.N, ValueSize: cfg.ValueSize,
		Cores: cfg.Cores, Sockets: cfg.Sockets, CommitWindow: cfg.CommitWindow}
	if err := shape.Validate(); err != nil {
		return err
	}
	if cfg.Mixed && cfg.Cores > 1 {
		return fmt.Errorf("campaign: Mixed streams are not sharded across cores (cores=%d)", cfg.Cores)
	}
	return nil
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	TotalPersistEvents uint64
	PointsTested       int
	// PendingAccepted counts crash points where the in-flight
	// transaction turned out to be durable (crash after its commit
	// record persisted but before control returned).
	PendingAccepted int
	RecordsApplied  int
	LeakedBytes     uint64
}

// genOps produces the deterministic operation stream: the load's
// inserts, or its churn of inserts, updates and deletes when Mixed.
// RunCampaign calls it once; every run and every verification of the
// campaign shares the result and only reads it.
func genOps(cfg CampaignConfig) []ycsb.MixOp {
	load := ycsb.Load{N: cfg.N, ValueSize: cfg.ValueSize, Seed: cfg.Seed}
	if cfg.Mixed {
		return load.Churn()
	}
	return load.Inserts()
}

// runInfo is the outcome of one (possibly crashed) execution. It
// records which operations ran, not the states they produced:
// verifyPoint rebuilds the oracle from the shared op stream.
type runInfo struct {
	img *pmem.Image
	// done holds the indices of the completed operations in completion
	// order, which on a cluster is the interleaver's global commit order.
	done []int
	// pending is the index of the in-flight operation, or -1. A crash
	// image must match the committed state before it or after it (the
	// in-flight transaction either reverted or committed).
	pending int
	crashed bool
}

// pendingText names the in-flight operation's key for an error.
func (info *runInfo) pendingText(ops []ycsb.MixOp) string {
	if info.pending < 0 {
		return "no op pending"
	}
	return fmt.Sprintf("pending key %d", ops[info.pending].Key)
}

// runOp applies ops[i] with runInfo's bookkeeping around it.
func (info *runInfo) runOp(w workloads.Workload, sys *slpmt.System, ops []ycsb.MixOp, i int) error {
	info.pending = i
	if err := workloads.Apply(w, sys, ops[i]); err != nil {
		return fmt.Errorf("op on key %d: %w", ops[i].Key, err)
	}
	info.done = append(info.done, i)
	info.pending = -1
	return nil
}

// execute runs the workload over ops on a Cores-wide cluster (0 or 1 =
// one core), crashing after the given machine-wide persist event (0 =
// run to completion), so points land on whichever core issues the Nth
// persist. The op stream is sharded round-robin across the cores and
// run under the cluster interleaver (see bench.Shard). The interleaver
// schedules at transaction granularity — at most one operation is ever
// in flight — so the W=1 window (before/after the pending op) is sound
// at any core count.
//
// The run uses v's platform: the cluster is built on v's first run and
// Reset for every later one, and info's image is the platform's crash
// view, its durable image itself. info (its image and completed-op
// list) is therefore valid until v's next run; a fresh verifier runs on
// a fresh platform. The completed-op list is sized for every op on v's
// first run, so no run regrows it.
func (v *verifier) execute(cfg CampaignConfig, ops []ycsb.MixOp, crashAfter uint64) (info runInfo, totalPersists uint64, err error) {
	if cap(v.done) < len(ops) {
		v.done = make([]int, 0, len(ops))
	}
	info = runInfo{done: v.done[:0], pending: -1}
	w := workloads.MustNew(cfg.Workload)
	cl := v.platform(cfg, w)
	cl.Plat.CrashAfterTotal = crashAfter

	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*machine.CrashSignal); !ok {
				panic(r)
			}
			info.crashed = true
			info.img = v.img
		}
		totalPersists = cl.Plat.PersistTotal
		v.done = info.done
	}()

	if err := w.Setup(cl.Use(0)); err != nil {
		return info, 0, fmt.Errorf("setup: %w", err)
	}
	// Close setup's epoch (no-op without a window) so crash points —
	// which start after setup's persist count — never revert it. A
	// grouped close seals every core's epoch, so closing core 0's (the
	// only one setup ran on) makes all of setup durable.
	cl.Use(0).FinishEpoch()
	// The interleaver runs whole transactions, so completion order here
	// IS the cluster-global commit order.
	if err := bench.Shard(cl, len(ops), func(sys *slpmt.System, i int) error {
		return info.runOp(w, sys, ops, i)
	}); err != nil {
		return info, 0, err
	}
	cl.DrainLazy()
	info.img = v.img
	return info, cl.Plat.PersistTotal, nil
}

// platform returns v's cluster for a run of cfg's workload w: built on
// first use, with its crash view, and Reset to its newly built state on
// every later one. The Reset also zeroes every page the last point's
// recovery wrote through the view.
func (v *verifier) platform(cfg CampaignConfig, w workloads.Workload) *slpmt.Cluster {
	if v.cl != nil {
		v.cl.Reset()
		return v.cl
	}
	v.cl = slpmt.NewCluster(cfg.Cores, slpmt.Options{
		Scheme:             cfg.Scheme,
		ComputeCyclesPerOp: w.ComputeCost(),
		CommitWindow:       cfg.CommitWindow,
		Sockets:            cfg.Sockets,
	})
	v.img = v.cl.Plat.CrashView()
	return v.cl
}

// verifyPoint recovers a crash image and verifies it against a window
// of committed prefixes (verifyPrefix): at W=1 the completed operations'
// state, or that state with the in-flight transaction reverted or
// committed; under group commit any of the cores*W+1 prefixes nearest
// the crash. The workload is instantiated afresh, so no volatile state
// survives from the run or an earlier point; everything else comes
// from v.
func (v *verifier) verifyPoint(cfg CampaignConfig, ops []ycsb.MixOp, info runInfo, res *CampaignResult) error {
	w := workloads.MustNew(cfg.Workload)
	rec := w.(workloads.Recoverable)

	cores := max(cfg.Cores, 1)
	sockets := max(cfg.Sockets, 1)
	rep, heaps, err := v.recover(info.img, rec, cores, sockets)
	if err != nil {
		return err
	}
	res.RecordsApplied += rep.RecordsApplied
	res.LeakedBytes += rep.Heap.ReclaimedBytes
	if sockets > 1 {
		// Arena rebuild: every arena (and the global fallback) must
		// tile exactly into live blocks, free extents, and virgin space.
		if err := heaps[0].Check(); err != nil {
			return fmt.Errorf("sharded heap reconciliation: %w", err)
		}
	}

	return v.verifyPrefix(rec, ops, info, window(cfg, &info), res)
}

// window is how many of the committed prefixes nearest the crash a
// crash image of info may equal: at W=1 the completed operations'
// state, and with an operation in flight that state with it applied;
// under group commit, where a crash reverts every transaction since the
// last epoch close, cores*W+1.
func window(cfg CampaignConfig, info *runInfo) int {
	switch {
	case cfg.CommitWindow > 1:
		return max(cfg.Cores, 1)*cfg.CommitWindow + 1
	case info.pending >= 0:
		return 2
	}
	return 1
}

// oracleMap returns v's oracle map, emptied. It is made on first use
// with room for the largest live key set along ops, so no point of the
// campaign regrows it.
func (v *verifier) oracleMap(ops []ycsb.MixOp) map[uint64][]byte {
	if v.oracle == nil {
		v.oracle = make(map[uint64][]byte, maxLive(ops))
	}
	clear(v.oracle)
	return v.oracle
}

// maxLive is the peak of the live key count along ops: inserts minus
// deletes. Every insert adds a new key and every delete removes a live
// one, so no prefix of ops leaves more keys in an oracle.
func maxLive(ops []ycsb.MixOp) int {
	live, peak := 0, 0
	for i := range ops {
		switch ops[i].Kind {
		case ycsb.OpInsert:
			live++
			peak = max(peak, live)
		case ycsb.OpDelete:
			live--
		}
	}
	return peak
}

// verifyPrefix checks the recovered image against the window newest
// prefixes of the completed operations followed by the in-flight one:
// it must equal the oracle after one of them (all-or-nothing per epoch
// — a torn window matches nothing). The oracle is one map, built by
// replaying the operations up to the oldest candidate, O(ops) per
// point; the search then goes oldest first, applying one operation per
// further candidate. A candidate is checked only when its size equals
// the image's RootCount, because CheckDurable rejects any other size
// (see workloads.Recoverable). The first match passes the image; a
// failure reports the newest checked candidate's error, or, when no
// candidate had the image's size, the newest candidate's. With an
// operation in flight, PendingAccepted counts the images that equal the
// newest candidate.
func (v *verifier) verifyPrefix(rec workloads.Recoverable, ops []ycsb.MixOp, info runInfo, window int, res *CampaignResult) error {
	seq := info.done
	if info.pending >= 0 {
		seq = append(seq, info.pending)
	}
	// len(seq)+1 prefixes exist, the empty (post-setup) one included.
	oldest := len(seq) + 1 - min(window, len(seq)+1)
	oracle := v.oracleMap(ops)
	for _, i := range seq[:oldest] {
		ops[i].ApplyTo(oracle)
	}
	count := workloads.ReadRoot(info.img, workloads.RootCount)
	var err error
	p := oldest
	for ; ; p++ {
		if uint64(len(oracle)) == count {
			if err = rec.CheckDurable(info.img, oracle); err == nil {
				break
			}
		}
		if p == len(seq) {
			if err == nil {
				err = rec.CheckDurable(info.img, oracle)
			}
			return fmt.Errorf("durable state matches no committed prefix in a window of %d (%s): %v",
				window, info.pendingText(ops), err)
		}
		ops[seq[p]].ApplyTo(oracle)
	}
	if info.pending < 0 {
		return nil
	}
	// The in-flight transaction is durable if the image equals the
	// newest candidate, which an older match does not rule out: a key
	// inserted and deleted within the window leaves two equal prefixes.
	// The newest can equal this one only if the in-flight operation,
	// the window's last, leaves its key as this one holds it.
	if p < len(seq) {
		if ops[info.pending].Changes(oracle) {
			return nil
		}
		for _, i := range seq[p:] {
			ops[i].ApplyTo(oracle)
		}
		if uint64(len(oracle)) != count || rec.CheckDurable(info.img, oracle) != nil {
			return nil
		}
	}
	res.PendingAccepted++
	return nil
}

// setupPersists counts the persist events of Setup alone, so the
// campaign can start crashing after initialization (a crash during
// setup reverts to an uninitialized image, which applications handle by
// re-running setup — there is no structure to verify). It runs on v's
// platform, like execute.
func (v *verifier) setupPersists(cfg CampaignConfig) (uint64, error) {
	w := workloads.MustNew(cfg.Workload)
	cl := v.platform(cfg, w)
	if err := w.Setup(cl.Use(0)); err != nil {
		return 0, err
	}
	cl.Use(0).FinishEpoch()
	return cl.Plat.PersistTotal, nil
}

// pointOutcome is one crash point's contribution to the campaign.
type pointOutcome struct {
	crashed bool
	sub     CampaignResult // PendingAccepted/RecordsApplied/LeakedBytes only
	err     error
}

// testPoint executes one crash point and verifies the recovered image
// with v, returning its isolated contribution. Every run is
// deterministic and self-contained, and v keeps buffers but no results
// from one point to the next, so points can execute in any order (or
// concurrently, each with its own verifier) and aggregate to the same
// campaign result.
func testPoint(v *verifier, cfg CampaignConfig, ops []ycsb.MixOp, point uint64) (out pointOutcome) {
	info, _, err := v.execute(cfg, ops, point)
	if err != nil {
		out.err = fmt.Errorf("crash point %d: %w", point, err)
		return out
	}
	if !info.crashed {
		// Point beyond the run's events (drain already done).
		return out
	}
	out.crashed = true
	out.err = v.checkPoint(cfg, ops, info, point, &out.sub)
	return out
}

// checkPoint verifies a crashed run's image with v and adds the point's
// contribution to res. A panic while recovering or checking the image
// (a structure walk following a garbage pointer) fails the point like
// any other invalid image, so sweeps and RunPoint report the same error
// for the same point.
func (v *verifier) checkPoint(cfg CampaignConfig, ops []ycsb.MixOp, info runInfo, point uint64, res *CampaignResult) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("crash point %d: recovery panicked: %v", point, r)
		}
	}()
	if err := v.verifyPoint(cfg, ops, info, res); err != nil {
		return fmt.Errorf("crash point %d: %w", point, err)
	}
	return nil
}

// RunPoint runs crash point point (the number a failing campaign
// reports) of cfg's campaign alone, through the sweep's driver and
// check, so err is the campaign's error for the point. img is a copy
// of the crash image taken before recovery repairs the image in place;
// past the run's end, crashed is false and img is the completed run's.
// res is the point's contribution, with the run's persist count as
// TotalPersistEvents. A nil img means no point ran: cfg is invalid, the
// point is in set-up, or an operation failed.
func RunPoint(cfg CampaignConfig, point uint64) (img *pmem.Image, crashed bool, res CampaignResult, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, res, err
	}
	v := new(verifier)
	setup, err := v.setupPersists(cfg)
	if err != nil {
		return nil, false, res, err
	}
	if point <= setup {
		return nil, false, res, fmt.Errorf("crash point %d falls in set-up (persist events 1-%d)", point, setup)
	}
	ops := genOps(cfg)
	info, total, err := v.execute(cfg, ops, point)
	if err != nil {
		return nil, false, res, fmt.Errorf("crash point %d: %w", point, err)
	}
	res.TotalPersistEvents = total
	img = info.img.Clone()
	if !info.crashed {
		return img, false, res, nil
	}
	res.PointsTested = 1
	err = v.checkPoint(cfg, ops, info, point, &res)
	return img, true, res, err
}

// accumulate folds one tested point into the campaign totals.
func (r *CampaignResult) accumulate(o *pointOutcome) {
	r.PointsTested++
	r.PendingAccepted += o.sub.PendingAccepted
	r.RecordsApplied += o.sub.RecordsApplied
	r.LeakedBytes += o.sub.LeakedBytes
}

// RunCampaign executes the crash-injection campaign: every crash point
// runs, on cfg.Parallel workers, and the outcomes are folded in
// ascending point order up to the first failing point (whose error is
// returned with the totals before it) or the first point beyond the
// run, so the result is the same at any worker count. A run that
// panics fails the campaign with a bench.PanicError in its error
// instead of ending the process.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ops := genOps(cfg)
	// Reference run: count persist events and confirm a clean pass. It
	// runs on a platform of its own, which no crash point resets: a
	// caller may still read its Systems when the campaign returns.
	refV := new(verifier)
	ref, total, err := refV.execute(cfg, ops, 0)
	if err != nil {
		return nil, err
	}
	if ref.crashed {
		return nil, fmt.Errorf("reference run crashed unexpectedly")
	}
	// The sweep's first verifier counts the set-up persists on its
	// platform. It takes over the reference run's completed-op list,
	// which nothing reads past this point, so no point sizes one.
	v := &verifier{done: refV.done[:0]}
	setup, err := v.setupPersists(cfg)
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{TotalPersistEvents: total}

	// Point i crashes at persist event setup + (i+1)*Stride.
	n := 0
	if total > setup {
		n = int((total - setup) / cfg.Stride)
	}
	if cfg.MaxPoints > 0 {
		n = min(n, cfg.MaxPoints)
	}

	// Each job takes a verifier from the free list and puts it back
	// after, so at most one verifier per worker is ever built, and a
	// serial sweep runs every point on v. The list starts with v and
	// has room for one verifier per job.
	outs := make([]pointOutcome, n)
	free := make(chan *verifier, n+1)
	free <- v
	if err := bench.ForEachWorkers(n, cfg.Parallel, func(i int) error {
		var v *verifier
		select {
		case v = <-free:
		default:
			v = new(verifier)
		}
		outs[i] = testPoint(v, cfg, ops, setup+uint64(i+1)*cfg.Stride)
		free <- v
		return nil
	}); err != nil {
		return res, err
	}
	for i := range outs {
		if outs[i].err != nil {
			return res, outs[i].err
		}
		if !outs[i].crashed {
			break
		}
		res.accumulate(&outs[i])
	}
	return res, nil
}
