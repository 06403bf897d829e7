package bench

import (
	"reflect"
	"testing"

	"github.com/persistmem/slpmt/internal/trace"
)

// critCfg is the critpath tests' standard cell: small enough to stay
// fast, parallel enough to exercise cross-core hops.
func critCfg() RunConfig {
	return RunConfig{
		Scheme: "SLPMT", Workload: "hashtable",
		N: 300, ValueSize: 64, Cores: 2,
		CritPath: true,
	}
}

// TestCritPathContract is the conservation contract on a real run: the
// critical-path length equals the measured makespan cycles and the
// per-cause critical shares sum to the path. (reduceTrace enforces this
// with a panic; the test pins the observable values too.)
func TestCritPathContract(t *testing.T) {
	r := Run(critCfg())
	an := r.CritPath
	if an == nil {
		t.Fatal("no critpath analysis on a CritPath run")
	}
	if err := an.Check(); err != nil {
		t.Fatal(err)
	}
	if an.Makespan != r.Cycles {
		t.Fatalf("critpath makespan %d != measured cycles %d", an.Makespan, r.Cycles)
	}
	if an.PathLen != an.Makespan {
		t.Fatalf("path length %d != makespan %d", an.PathLen, an.Makespan)
	}
	if got := an.PathCycles.Sum(); got != an.PathLen {
		t.Fatalf("per-cause path shares sum to %d, path length %d", got, an.PathLen)
	}
	if an.Cores != 2 {
		t.Fatalf("analysis saw %d cores, want 2", an.Cores)
	}
	if len(an.HotLines) == 0 || an.Hops == 0 {
		t.Fatalf("expected hops and hot lines on a contended 2-core run: hops=%d lines=%d",
			an.Hops, len(an.HotLines))
	}
}

// TestCritPathStreamedMatchesRing analyzes the same deterministic run
// once with no binlog (the analyzer fed the spills only) and once
// through the on-disk SLPSEG01 binlog writer too, and requires the
// canonical reports to be byte-identical: the analysis is a pure
// function of the event stream, and both pipelines carry the same
// stream.
func TestCritPathStreamedMatchesRing(t *testing.T) {
	ring := Run(critCfg())

	scfg := critCfg()
	scfg.StreamDir = t.TempDir()
	streamed := Run(scfg)

	if ring.Cycles != streamed.Cycles {
		t.Fatalf("streaming changed timing: %d vs %d cycles", ring.Cycles, streamed.Cycles)
	}
	a, b := ring.CritPath.Render(10), streamed.CritPath.Render(10)
	if a != b {
		t.Fatalf("analysis with a binlog diverges from the one without:\n--- no binlog ---\n%s\n--- binlog ---\n%s", a, b)
	}
}

// TestCritPathObservationOnly verifies the analysis never feeds back
// into the simulation: cycles and every counter are identical with the
// analyzer on or off.
func TestCritPathObservationOnly(t *testing.T) {
	base := critCfg()
	base.CritPath = false
	off := Run(base)
	on := Run(critCfg())
	if off.Cycles != on.Cycles {
		t.Fatalf("critpath changed cycles: %d vs %d", off.Cycles, on.Cycles)
	}
	if off.Counters != on.Counters {
		t.Fatalf("critpath changed counters:\noff: %+v\non:  %+v", off.Counters, on.Counters)
	}
}

// TestCritPathWindowProjectionBracket validates the W->inf what-if
// against a measured group-commit delta, the same comparison the
// EXPERIMENTS.md section makes against BENCH_window.json. The runs are
// fully deterministic, so the tolerances below are about robustness to
// future timing-model changes, not noise.
//
// Stated tolerance: on one core the ordering-only projection must land
// in [0.55, 1.05] of the measured W=16 gain — it undershoots because
// group commit also dedups commit.data rewrites (a traffic effect the
// what-if deliberately excludes), but must still capture over half the
// gain since ordering stalls dominate the window win. On two cores the
// projection must land in [0.95, 2.0] of measured — zeroing ordering on
// every core assumes perfect overlap, so it bounds the gain from above.
func TestCritPathWindowProjectionBracket(t *testing.T) {
	winProj := func(r Result) float64 {
		for _, p := range r.CritPath.WhatIf {
			if p.Name == "window-inf" {
				return p.Speedup
			}
		}
		t.Fatal("no window-inf projection")
		return 0
	}
	for _, cores := range []int{1, 2} {
		cfg := RunConfig{Scheme: "SLPMT", Workload: "avl", N: 300, ValueSize: 64, Cores: cores}
		w1 := cfg
		w1.CommitWindow = 1
		w1.CritPath = true
		w16 := cfg
		w16.CommitWindow = 16
		r1, r16 := Run(w1), Run(w16)
		measured := float64(r1.Cycles) / float64(r16.Cycles)
		proj := winProj(r1)
		if measured <= 1.1 {
			t.Fatalf("%d cores: W=16 gain %.3fx too small to bracket", cores, measured)
		}
		lo, hi := 0.55, 1.05
		if cores > 1 {
			lo, hi = 0.95, 2.0
		}
		if proj < lo*measured || proj > hi*measured {
			t.Errorf("%d cores: window-inf projection %.3fx outside [%.2f, %.2f] x measured %.3fx",
				cores, proj, lo, hi, measured)
		}
	}
}

// A CritPath run analyzes its events as its StreamRingEvents buffer
// spills: on a region that spills it several times, its live CritPath
// and Summary deep-equal those a replay of its binlog reduces to.
func TestCritPathSpilledMatchesCallerRing(t *testing.T) {
	cfg := critCfg()
	cfg.N = 1200
	cfg.StreamDir = t.TempDir()
	got := Run(cfg)
	if got.Summary.Events < 4*StreamRingEvents {
		t.Fatalf("region holds %d events; size it to spill the %d-event buffer several times", got.Summary.Events, StreamRingEvents)
	}
	want := replayBinlog(t, got, trace.AllKinds)
	if got.Summary != want.Summary {
		t.Fatalf("summary %+v, binlog replay %+v", got.Summary, want.Summary)
	}
	if !reflect.DeepEqual(got.CritPath, want.CritPath) {
		t.Fatalf("critical path differs from the binlog replay's:\n--- live ---\n%s\n--- replay ---\n%s",
			got.CritPath.Render(10), want.CritPath.Render(10))
	}
}
