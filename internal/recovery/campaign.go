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
	// engine (0 or 1 = the per-transaction protocol). With W > 1 the
	// verifier switches from the single pending-operation bracket to
	// prefix matching: a crash may revert every transaction since the
	// last epoch close, so the recovered image must equal the oracle
	// after SOME completed-operation prefix — and within at most
	// cores*W operations of the crash point. A torn epoch (some of a
	// window's transactions applied, others not) matches no prefix and
	// fails, which is exactly the all-or-nothing property under test.
	CommitWindow int
	// Stride samples every Stride-th persist event (1 = every event).
	Stride uint64
	// MaxPoints caps the number of crash points tested (0 = no cap).
	MaxPoints int
	// Parallel is the worker count for the crash points (each point is
	// an independent deterministic run). 0 uses the bench harness
	// default (GOMAXPROCS); 1 forces the serial sweep. Results are
	// identical at any setting.
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

// pendingKey is the in-flight operation's key, or 0 if none.
func (info *runInfo) pendingKey(ops []ycsb.MixOp) uint64 {
	if info.pending < 0 {
		return 0
	}
	return ops[info.pending].Key
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
// in flight — so the oracle bracket (before/after around the pending
// op) is sound at any core count.
//
// The run uses v's platform: the cluster is built on v's first run and
// Reset for every later one, and the image is written into v's image
// buffer. info (its image and completed-op list) is therefore valid
// until v's next run; a fresh verifier runs on a fresh platform.
func (v *verifier) execute(cfg CampaignConfig, ops []ycsb.MixOp, crashAfter uint64) (info runInfo, totalPersists uint64, err error) {
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
			info.img = v.crashImage()
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
	info.img = v.crashImage()
	return info, cl.Plat.PersistTotal, nil
}

// platform returns v's cluster for a run of cfg's workload w: built on
// first use, Reset to its newly built state on every later one.
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
	return v.cl
}

// crashImage snapshots v's cluster's durable image into v's image
// buffer and returns it.
func (v *verifier) crashImage() *pmem.Image {
	v.img = v.cl.Plat.CrashInto(v.img)
	return v.img
}

// verifyPoint recovers a crash image and verifies it against the
// pre-operation committed state, accepting the in-flight transaction as
// either durably committed or cleanly reverted. The oracle is one map,
// built by replaying the completed operations in their order: O(ops)
// per point. The workload is instantiated afresh, so no volatile state
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

	if cfg.CommitWindow > 1 {
		return v.verifyPrefix(rec, ops, info, cores*cfg.CommitWindow+1, res)
	}

	oracle := v.oracleMap(len(info.done) + 1)
	for _, i := range info.done {
		ops[i].ApplyTo(oracle)
	}
	// The "before" candidate is checked only at the image's RootCount
	// (see verifyPrefix); its error is built only if "after" fails too.
	var errBefore error
	checked := uint64(len(oracle)) == workloads.ReadRoot(info.img, workloads.RootCount)
	if checked {
		if errBefore = rec.CheckDurable(info.img, oracle); errBefore == nil {
			return nil
		}
	}
	if info.pending < 0 {
		if !checked {
			errBefore = rec.CheckDurable(info.img, oracle)
		}
		return fmt.Errorf("durable state invalid (no op pending): %v", errBefore)
	}
	op := &ops[info.pending]
	undo := undoOp(oracle, op.Key)
	op.ApplyTo(oracle)
	errAfter := rec.CheckDurable(info.img, oracle)
	if errAfter == nil {
		res.PendingAccepted++
		return nil
	}
	if !checked {
		undo.ApplyTo(oracle)
		errBefore = rec.CheckDurable(info.img, oracle)
	}
	return fmt.Errorf("durable state invalid (pending key %d): before the op: %v; after it: %v",
		op.Key, errBefore, errAfter)
}

// oracleMap returns v's oracle map, emptied; hint sizes it on first use.
func (v *verifier) oracleMap(hint int) map[uint64][]byte {
	if v.oracle == nil {
		v.oracle = make(map[uint64][]byte, hint)
	}
	clear(v.oracle)
	return v.oracle
}

// undoOp returns the op that restores key to its state in oracle: an
// update back to its value, or a delete if it is absent.
func undoOp(oracle map[uint64][]byte, key uint64) ycsb.MixOp {
	if v, ok := oracle[key]; ok {
		return ycsb.MixOp{Kind: ycsb.OpUpdate, Key: key, Value: v}
	}
	return ycsb.MixOp{Kind: ycsb.OpDelete, Key: key}
}

// verifyPrefix is verifyPoint under group commit: the recovered image
// must equal the oracle after some completed prefix (all-or-nothing per
// epoch — a torn window matches nothing), including the in-flight
// operation's, and no further back than bound candidates from the
// crash. Candidates are checked newest first: the replay records undo
// entries for the operations it may have to revert, then reverts them
// one at a time. A candidate is checked only when its size equals the
// image's RootCount, because CheckDurable rejects any other size (see
// workloads.Recoverable). The newest candidate's error is the one
// reported; when every candidate fails and the newest was skipped, the
// reverted operations are re-applied to build that error.
func (v *verifier) verifyPrefix(rec workloads.Recoverable, ops []ycsb.MixOp, info runInfo, bound int, res *CampaignResult) error {
	seq := info.done
	if info.pending >= 0 {
		seq = append(seq, info.pending)
	}
	// len(seq)+1 prefixes exist, the empty (post-setup) one included.
	reverts := min(bound, len(seq)+1) - 1
	oracle := v.oracleMap(len(seq))
	split := len(seq) - reverts
	for _, i := range seq[:split] {
		ops[i].ApplyTo(oracle)
	}
	if cap(v.undo) < reverts {
		v.undo = make([]ycsb.MixOp, reverts)
	}
	undo := v.undo[:reverts]
	for u, i := range seq[split:] {
		undo[u] = undoOp(oracle, ops[i].Key)
		ops[i].ApplyTo(oracle)
	}
	count := workloads.ReadRoot(info.img, workloads.RootCount)
	var firstErr error
	for c := 0; ; c++ {
		if uint64(len(oracle)) == count {
			if err := rec.CheckDurable(info.img, oracle); err == nil {
				if info.pending >= 0 && c == 0 {
					res.PendingAccepted++
				}
				return nil
			} else if c == 0 {
				firstErr = err
			}
		}
		if c == reverts {
			break
		}
		undo[reverts-1-c].ApplyTo(oracle)
	}
	if firstErr == nil {
		for _, i := range seq[split:] {
			ops[i].ApplyTo(oracle)
		}
		firstErr = rec.CheckDurable(info.img, oracle)
	}
	return fmt.Errorf("durable state matches no committed prefix within %d operations of the crash (pending key %d): %v",
		bound, info.pendingKey(ops), firstErr)
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
// check, so err is the campaign's error for the point. img is the crash
// image before recovery, which runs on a copy; past the run's end,
// crashed is false and img is the completed run's. res is the point's
// contribution, with the run's persist count as TotalPersistEvents. A
// nil img means no point ran: cfg is invalid, the point is in set-up,
// or an operation failed.
func RunPoint(cfg CampaignConfig, point uint64) (img *pmem.Image, crashed bool, res CampaignResult, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, res, err
	}
	// A verifier of its own: the image it returns is not reused.
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
	if !info.crashed {
		return info.img, false, res, nil
	}
	res.PointsTested = 1
	img, info.img = info.img, info.img.Clone()
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

// RunCampaign executes the crash-injection campaign, fanning crash
// points across cfg.Parallel workers. Outcomes are folded in ascending
// point order with the serial sweep's early-exit rules, so the result
// is bit-identical to a one-worker run.
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
	ref, total, err := new(verifier).execute(cfg, ops, 0)
	if err != nil {
		return nil, err
	}
	if ref.crashed {
		return nil, fmt.Errorf("reference run crashed unexpectedly")
	}
	// The sweep's first verifier counts the set-up persists on its
	// platform, and its crash snapshots fill the reference run's image,
	// which nothing reads after this.
	v := &verifier{img: ref.img}
	setup, err := v.setupPersists(cfg)
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{TotalPersistEvents: total}

	var points []uint64
	for p := setup + cfg.Stride; p <= total; p += cfg.Stride {
		if cfg.MaxPoints > 0 && len(points) >= cfg.MaxPoints {
			break
		}
		points = append(points, p)
	}

	workers := cfg.Parallel
	if workers <= 0 {
		workers = bench.Parallelism()
	}
	if workers <= 1 {
		// Serial sweep: stop executing at the first error or
		// beyond-the-run point, exactly like the historical loop. One
		// verifier, and so one platform, serves every point.
		for _, point := range points {
			out := testPoint(v, cfg, ops, point)
			if out.err != nil {
				return res, out.err
			}
			if !out.crashed {
				break
			}
			res.accumulate(&out)
		}
		return res, nil
	}

	// Each worker takes a verifier from the free list for a job and puts
	// it back after, so at most one verifier per worker is ever built.
	// The list starts with v.
	outs := make([]pointOutcome, len(points))
	free := make(chan *verifier, workers)
	free <- v
	if err := bench.ForEachWorkers(len(points), workers, func(i int) error {
		var v *verifier
		select {
		case v = <-free:
		default:
			v = new(verifier)
		}
		outs[i] = testPoint(v, cfg, ops, points[i])
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
