package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/workloads"
)

// cellSim is one cell's simulated-clock outcome over its measured
// region: the per-core makespan, the counter delta, and the simulated
// cycles of every op.
type cellSim struct {
	name     string
	scheme   string
	cycles   uint64
	counters stats.Counters
	opCycles []uint64
}

func (s *cellSim) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %d %+v", s.name, s.cycles, s.counters)
	var b [8]byte
	for _, c := range s.opCycles {
		binary.LittleEndian.PutUint64(b[:], c)
		h.Write(b[:])
	}
	return h.Sum64()
}

// tally accumulates one round: one pass over every cell (or campaign)
// of a workload.
type tally struct {
	ops, failed int
	errs        []string

	measured time.Duration   // summed measured regions
	setup    time.Duration   // inputs, New, Setup and preload of every cell
	setups   []time.Duration // the same, per cell or campaign
	newT     []time.Duration
	setupT   []time.Duration
	verifyT  time.Duration
	drainT   time.Duration

	mallocs, allocBytes uint64
	peakHeap            uint64

	hostOp     [][]time.Duration // per cell or campaign, each op's time
	hostByKind [numKinds][]time.Duration
	interleave time.Duration // wall time inside Cluster.Interleave
	callbacks  time.Duration // op spans inside it

	sims      []cellSim
	causes    profile.Vector
	occMax    uint64
	occAvg    []uint64
	socketEnq []uint64

	campaignT      []time.Duration
	points         int
	recordsApplied int
	leakedBytes    uint64

	spans *spanRecorder
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// digest folds every cell's simulated outcome, in cell order.
func (t *tally) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range t.sims {
		binary.LittleEndian.PutUint64(b[:], t.sims[i].digest())
		h.Write(b[:])
	}
	return h.Sum64()
}

// platform is a cell's simulated machine: one System, or a Cluster's
// Systems.
type platform struct {
	sys []*slpmt.System
	cl  *slpmt.Cluster
}

func newPlatform(c *cellSpec, compute uint64, prof *profile.Profile) platform {
	opts := slpmt.Options{
		Scheme:             c.scheme,
		ComputeCyclesPerOp: compute,
		CommitWindow:       c.window,
		Sockets:            c.sockets,
		Profile:            prof,
	}
	if c.cores > 1 {
		cl := slpmt.NewCluster(c.cores, opts)
		return platform{sys: cl.Sys, cl: cl}
	}
	return platform{sys: []*slpmt.System{slpmt.New(opts)}}
}

// use selects core i for direct driving.
func (p platform) use(i int) *slpmt.System {
	if p.cl != nil {
		return p.cl.Use(i)
	}
	return p.sys[i]
}

func (p platform) stats() stats.Counters {
	if p.cl != nil {
		return p.cl.Stats()
	}
	return p.sys[0].Stats().Snapshot()
}

// barrier aligns the core clocks at the start of the measured region
// and returns the common clock.
func (p platform) barrier() uint64 {
	if p.cl != nil {
		return p.cl.SyncClocks()
	}
	return p.sys[0].Cycles()
}

func (p platform) clock() uint64 {
	if p.cl != nil {
		return p.cl.MaxClk()
	}
	return p.sys[0].Cycles()
}

func (p platform) topo() *pmem.Topology { return p.sys[0].Mach.Machine().Topo }

func (p platform) drainLazy() {
	if p.cl != nil {
		p.cl.DrainLazy()
		return
	}
	p.sys[0].DrainLazy()
}

var errRead = errors.New("read returned a wrong or missing value")

// apply runs one op against the structure.
func apply(w workloads.Workload, sys *slpmt.System, o *op) error {
	switch o.kind {
	case opInsert:
		return w.Insert(sys, o.key, o.value)
	case opUpdate:
		return w.(workloads.Mutable).UpdateValue(sys, o.key, o.value)
	case opDelete:
		return w.(workloads.Mutable).Delete(sys, o.key)
	case opRead:
		if v, ok := w.Get(sys, o.key); !ok || !bytes.Equal(v, o.value) {
			return errRead
		}
		return nil
	default:
		n, prev, ordered := 0, uint64(0), true
		err := w.(workloads.Ranger).Scan(sys, o.key, ^uint64(0), func(k uint64, _ []byte) bool {
			ordered = ordered && (n == 0 && k >= o.key || n > 0 && k > prev)
			prev = k
			n++
			return n < scanLen
		})
		if err == nil && (n == 0 || !ordered) {
			err = fmt.Errorf("scan from %d returned %d records, ordered=%v", o.key, n, ordered)
		}
		return err
	}
}

// runCell runs one cell: set-up, the measured region (every op plus the
// final lazy drain), then verification outside the region. With traced
// set, a cycle-attribution profile and the span Recorder are attached.
func runCell(c *cellSpec, traced bool, t *tally) {
	t0 := time.Now()
	in := c.inputs()
	w := workloads.MustNew(c.structure)
	var prof *profile.Profile
	if traced {
		prof = profile.New(c.cores)
	}
	tn := time.Now()
	p := newPlatform(c, w.ComputeCost(), prof)
	ts := time.Now()
	t.newT = append(t.newT, ts.Sub(tn))
	s0 := p.use(0)
	if err := w.Setup(s0); err != nil {
		t.fail("%s: setup: %v", c.name(), err)
		return
	}
	for i := range in.preload {
		if err := apply(w, s0, &in.preload[i]); err != nil {
			t.fail("%s: preload: %v", c.name(), err)
			return
		}
	}
	// Seal set-up's epoch so the region starts at a durability boundary.
	s0.FinishEpoch()
	te := time.Now()
	t.setupT = append(t.setupT, te.Sub(ts))
	t.setup += te.Sub(t0)
	t.setups = append(t.setups, te.Sub(t0))

	if traced {
		for _, s := range p.sys {
			s.AttachRecorder(t.spans)
		}
	}
	ops := in.ops
	lat := make([]time.Duration, len(ops))
	cyc := make([]uint64, len(ops))
	var opErrs []error
	start := p.stats()
	startClk := p.barrier()
	p.topo().ResetOccupancy(startClk)
	if prof != nil {
		prof.Reset()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	enterRegion()
	region := time.Now()
	one := func(sys *slpmt.System, j int) {
		c0, h0 := sys.Cycles(), time.Now()
		err := apply(w, sys, &ops[j])
		lat[j], cyc[j] = time.Since(h0), sys.Cycles()-c0
		if err != nil {
			opErrs = append(opErrs, fmt.Errorf("op %d (%s key %d): %w", j, kindNames[ops[j].kind], ops[j].key, err))
		}
	}
	if p.cl != nil {
		// Op j runs on core j%cores, as bench.RunMulti shards keys.
		next := make([]int, c.cores)
		for i := range next {
			next[i] = i
		}
		il := time.Now()
		p.cl.Interleave(func(core int, sys *slpmt.System) bool {
			j := next[core]
			if j >= len(ops) {
				return false
			}
			next[core] = j + c.cores
			one(sys, j)
			return next[core] < len(ops)
		})
		t.interleave += time.Since(il)
		for _, d := range lat {
			t.callbacks += d
		}
	} else {
		for j := range ops {
			one(s0, j)
		}
	}
	td := time.Now()
	p.drainLazy()
	end := time.Now()
	leaveRegion()
	t.drainT += end.Sub(td)
	t.measured += end.Sub(region)
	runtime.ReadMemStats(&m1)
	t.mallocs += m1.Mallocs - m0.Mallocs
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc

	if traced {
		for _, s := range p.sys {
			s.AttachRecorder(nil)
		}
	}
	endStats := p.stats()
	sim := cellSim{name: c.name(), scheme: c.scheme, cycles: p.clock() - startClk, counters: endStats.Delta(start), opCycles: cyc}
	topo := p.topo()
	topo.QueueDepth(p.clock())
	occMax, occAvg := topo.OccupancyStats()
	t.occMax = max(t.occMax, occMax)
	t.occAvg = append(t.occAvg, occAvg)
	for i, s := range topo.SocketStats() {
		if i >= len(t.socketEnq) {
			t.socketEnq = append(t.socketEnq, 0)
		}
		t.socketEnq[i] += s.Enqueued
	}
	if prof != nil {
		totals := make([]uint64, c.cores)
		for i, s := range p.sys {
			totals[i] = s.Cycles() - startClk
		}
		b := prof.Breakdown(totals)
		if err := b.Conserved(); err != nil {
			t.fail("%s: %v", c.name(), err)
		}
		v := b.Merged()
		for i, n := range v {
			t.causes[i] += n
		}
	}
	t.sims = append(t.sims, sim)
	t.ops += len(ops)
	t.hostOp = append(t.hostOp, lat)
	for j := range ops {
		k := ops[j].kind
		t.hostByKind[k] = append(t.hostByKind[k], lat[j])
	}
	for _, err := range opErrs {
		t.fail("%s: %v", c.name(), err)
	}

	// Live heap at the end of the region, with the platform still
	// reachable.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	t.peakHeap = max(t.peakHeap, m1.HeapAlloc)

	tv := time.Now()
	verifyCell(c, w, p, in.oracle, t)
	t.verifyT += time.Since(tv)
}

// verifyCell checks the structure against the oracle through the
// volatile view, then recovers the final durable image and checks it
// too.
func verifyCell(c *cellSpec, w workloads.Workload, p platform, oracle map[uint64][]byte, t *tally) {
	if err := w.Check(p.use(0), oracle); err != nil {
		t.fail("%s: check: %v", c.name(), err)
	}
	img := p.topo().Crash()
	fresh := workloads.MustNew(c.structure).(workloads.Recoverable)
	if _, _, err := recovery.RecoverSharded(img, fresh, c.cores, c.sockets); err != nil {
		t.fail("%s: recover final image: %v", c.name(), err)
	} else if err := fresh.CheckDurable(img, oracle); err != nil {
		t.fail("%s: durable check: %v", c.name(), err)
	}
}

// runCampaigns runs crash-1c's campaigns for one round. Before each, a
// fresh System is set up three times the way every crash point sets one
// up; the median is the campaign's set-up cost.
func runCampaigns(cs []campaignSpec, traced bool, t *tally) {
	for i := range cs {
		c := &cs[i]
		var totals []float64
		for range 3 {
			t0 := time.Now()
			w := workloads.MustNew(c.structure)
			sys := slpmt.New(slpmt.Options{Scheme: "SLPMT", ComputeCyclesPerOp: w.ComputeCost(), CommitWindow: c.window})
			ts := time.Now()
			t.newT = append(t.newT, ts.Sub(t0))
			if err := w.Setup(sys); err != nil {
				t.fail("%s: setup: %v", c.structure, err)
			}
			te := time.Now()
			t.setupT = append(t.setupT, te.Sub(ts))
			totals = append(totals, float64(te.Sub(t0)))
		}
		setup := time.Duration(median(totals))
		t.setup += setup
		t.setups = append(t.setups, setup)

		var rec slpmt.Recorder
		if traced {
			rec = t.spans
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		enterRegion()
		out, err := runCampaign(c, rec)
		leaveRegion()
		runtime.ReadMemStats(&m1)
		t.mallocs += m1.Mallocs - m0.Mallocs
		t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		// Live heap with the reference run's System still reachable, as
		// for a cell.
		runtime.GC()
		runtime.ReadMemStats(&m1)
		t.peakHeap = max(t.peakHeap, m1.HeapAlloc)
		runtime.KeepAlive(out.ref)
		t.measured += out.wall
		t.campaignT = append(t.campaignT, out.wall)
		if err != nil {
			t.ops++
			t.fail("%v", err)
			continue
		}
		t.ops += len(out.points)
		t.points += len(out.points)
		t.hostOp = append(t.hostOp, out.points)
		t.verifyT += out.verify
		t.recordsApplied += out.res.RecordsApplied
		t.leakedBytes += out.res.LeakedBytes
		t.sims = append(t.sims, cellSim{
			name:     fmt.Sprintf("SLPMT/%s/crash-w%d", c.structure, c.window),
			scheme:   "SLPMT",
			cycles:   out.cycles,
			counters: out.counters,
			opCycles: out.opCycles,
		})
	}
}
