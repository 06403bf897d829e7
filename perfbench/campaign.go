package main

import (
	"fmt"
	"time"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
)

// campaignProbe observes one recovery.RunCampaign call from outside.
// The campaign instantiates its workload by name once per execution and
// once per verification: the reference run, the set-up persist count,
// then (execute, verify) for every crash point. The benchmark registers
// a probe workload per structure that wraps the real one, so each
// instantiation timestamps a phase boundary and the reference run's
// System is visible for the simulated-clock metrics.
type campaignProbe struct {
	structure string
	// stamps holds the time of every instantiation of the current
	// campaign, in order.
	stamps []time.Time
	// ref is the reference run's workload (the first instantiation).
	ref *probed
	// rec, when non-nil, is attached to the reference run's System.
	rec slpmt.Recorder
}

// probes maps a structure name to its registered probe.
var probes = map[string]*campaignProbe{}

func probeName(structure string) string { return "perfbench." + structure }

func init() {
	for _, st := range []string{"hashtable", "kv-btree"} {
		p := &campaignProbe{structure: st}
		probes[st] = p
		workloads.Register(probeName(st), p.instance)
	}
}

func (p *campaignProbe) instance() workloads.Workload {
	p.stamps = append(p.stamps, time.Now())
	w := &probed{Workload: workloads.MustNew(p.structure)}
	if len(p.stamps) == 1 {
		w.probe = p
		p.ref = w
	}
	return w
}

// probed wraps a structure. On the campaign's reference run it records
// the simulated clock around every operation, like runCell.
type probed struct {
	workloads.Workload
	probe *campaignProbe // nil except on the reference run

	sys      *slpmt.System
	start    stats.Counters
	startClk uint64
	opCycles []uint64
}

func (w *probed) Setup(sys *slpmt.System) error {
	if w.probe != nil {
		w.sys = sys
		if w.probe.rec != nil {
			sys.AttachRecorder(w.probe.rec)
		}
	}
	return w.Workload.Setup(sys)
}

func (w *probed) timed(sys *slpmt.System, fn func() error) error {
	if w.probe == nil {
		return fn()
	}
	if w.opCycles == nil {
		// The measured region opens at the first operation, after
		// Setup and its FinishEpoch.
		w.start, w.startClk = sys.Stats().Snapshot(), sys.Cycles()
	}
	c0 := sys.Cycles()
	err := fn()
	w.opCycles = append(w.opCycles, sys.Cycles()-c0)
	return err
}

func (w *probed) Insert(sys *slpmt.System, key uint64, value []byte) error {
	return w.timed(sys, func() error { return w.Workload.Insert(sys, key, value) })
}

func (w *probed) UpdateValue(sys *slpmt.System, key uint64, value []byte) error {
	return w.timed(sys, func() error { return w.Workload.(workloads.Mutable).UpdateValue(sys, key, value) })
}

func (w *probed) Delete(sys *slpmt.System, key uint64) error {
	return w.timed(sys, func() error { return w.Workload.(workloads.Mutable).Delete(sys, key) })
}

func (w *probed) Recover(img *pmem.Image) error {
	return w.Workload.(workloads.Recoverable).Recover(img)
}

func (w *probed) Reach(img *pmem.Image) ([]txheap.Extent, error) {
	return w.Workload.(workloads.Recoverable).Reach(img)
}

func (w *probed) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	return w.Workload.(workloads.Recoverable).CheckDurable(img, oracle)
}

// campaignOutcome is what one campaign contributes to a round.
type campaignOutcome struct {
	res    *recovery.CampaignResult
	wall   time.Duration
	points []time.Duration // per crash point: execute + verify
	verify time.Duration   // summed verification part of the points
	// The reference run's System and its measured region (first op to
	// the end of the run, including its final lazy drain).
	ref      *slpmt.System
	cycles   uint64
	counters stats.Counters
	opCycles []uint64
}

// runCampaign runs one serial campaign and splits its wall time into
// crash points from the probe's instantiation stamps.
func runCampaign(c *campaignSpec, rec slpmt.Recorder) (campaignOutcome, error) {
	p := probes[c.structure]
	p.stamps, p.ref, p.rec = p.stamps[:0], nil, rec
	t0 := time.Now()
	res, err := recovery.RunCampaign(recovery.CampaignConfig{
		Workload:     probeName(c.structure),
		Scheme:       "SLPMT",
		N:            c.n,
		ValueSize:    64,
		Seed:         c.seed,
		Mixed:        c.mixed,
		CommitWindow: c.window,
		Stride:       c.stride,
		Parallel:     1,
	})
	end := time.Now()
	out := campaignOutcome{res: res, wall: end.Sub(t0)}
	if err != nil {
		return out, fmt.Errorf("campaign %s: %w", c.structure, err)
	}
	// stamps: [reference, setup count, exec_1, verify_1, ..., exec_k,
	// verify_k] plus one trailing exec when the last point fell beyond
	// the run.
	n := res.PointsTested
	if extra := len(p.stamps) - 2 - 2*n; n == 0 || (extra != 0 && extra != 1) {
		return out, fmt.Errorf("campaign %s: %d instantiations for %d points; the campaign's phase pattern changed",
			c.structure, len(p.stamps), n)
	}
	s := append(p.stamps[2:], end)
	for i := 0; i < n; i++ {
		out.points = append(out.points, s[2*i+2].Sub(s[2*i]))
		out.verify += s[2*i+2].Sub(s[2*i+1])
	}
	ref := p.ref
	out.ref = ref.sys
	out.cycles = ref.sys.Cycles() - ref.startClk
	out.counters = ref.sys.Stats().Delta(ref.start)
	out.opCycles = ref.opCycles
	p.ref, p.rec = nil, nil
	return out, nil
}
