package bench

import (
	"fmt"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/trace"
)

// conservationSchemes is the matrix the issue pins: the baseline, the
// unbuffered logger, the full design, and its redo variant exercise
// every attribution path (tiered/direct sinks, undo/redo commit stages,
// lazy drains).
var conservationSchemes = []string{schemes.FG, schemes.EDE, schemes.SLPMT, schemes.SLPMTRedo}

// TestAttributionConservation asserts the profiler's core invariant:
// on every core, for every scheme, the attributed cycles sum exactly to
// the core's clock advance over the measured region — no unexplained
// residue, no double charge.
func TestAttributionConservation(t *testing.T) {
	for _, scheme := range conservationSchemes {
		for _, cores := range []int{1, 2} {
			r := Run(RunConfig{
				Scheme: scheme, Workload: "hashtable",
				N: 80, ValueSize: 48, Verify: true, Profile: true, Cores: cores,
			})
			if r.VerifyErr != nil {
				t.Fatalf("%s/%d cores: verify: %v", scheme, cores, r.VerifyErr)
			}
			if r.Causes == nil {
				t.Fatalf("%s/%d cores: no breakdown on a profiled run", scheme, cores)
			}
			if got := len(r.Causes.Cores); got != cores {
				t.Fatalf("%s/%d cores: breakdown has %d cores", scheme, cores, got)
			}
			if err := r.Causes.Conserved(); err != nil {
				t.Errorf("%s/%d cores: %v", scheme, cores, err)
			}
			// The run's makespan is the slowest core's total.
			var max uint64
			for _, cb := range r.Causes.Cores {
				if cb.Total > max {
					max = cb.Total
				}
			}
			if max != r.Cycles {
				t.Errorf("%s/%d cores: max core total %d != Cycles %d", scheme, cores, max, r.Cycles)
			}
		}
	}
}

// TestProfileObservationOnly pins the PR 3 contract extended to the
// profiler: attaching a profile changes neither cycles nor counters —
// on a plain run, and on a traced run (which additionally must see no
// new events besides the KCharge attribution stream).
func TestProfileObservationOnly(t *testing.T) {
	for _, scheme := range conservationSchemes {
		for _, cores := range []int{1, 2} {
			base := RunConfig{
				Scheme: scheme, Workload: "hashtable",
				N: 60, ValueSize: 32, Cores: cores,
			}
			plain := Run(base)
			profiled := base
			profiled.Profile = true
			p := Run(profiled)
			if p.Cycles != plain.Cycles {
				t.Errorf("%s/%d cores: profiled cycles %d != plain %d", scheme, cores, p.Cycles, plain.Cycles)
			}
			if p.Counters != plain.Counters {
				t.Errorf("%s/%d cores: profiled counters differ from plain run", scheme, cores)
			}

			traced := base
			traced.Trace = trace.New(trace.DefaultCapacity)
			tr := Run(traced)
			both := base
			both.Profile = true
			both.Trace = trace.New(trace.DefaultCapacity)
			tp := Run(both)
			if tp.Cycles != tr.Cycles || tp.Counters != tr.Counters {
				t.Errorf("%s/%d cores: traced+profiled run differs from traced run", scheme, cores)
			}
			want := traced.Trace.Events()
			got := 0
			for _, e := range both.Trace.Events() {
				if e.Kind == trace.KCharge {
					continue
				}
				got++
			}
			if got != len(want) {
				t.Errorf("%s/%d cores: profiled trace has %d non-charge events, unprofiled has %d",
					scheme, cores, got, len(want))
			}
		}
	}
}

// TestFromEventsMatchesLive rebuilds the attribution from the KCharge
// event stream and checks it agrees with the live profile — the offline
// path over a saved trace is equivalent to in-process accumulation.
func TestFromEventsMatchesLive(t *testing.T) {
	tr := trace.New(trace.DefaultCapacity)
	r := Run(RunConfig{
		Scheme: schemes.SLPMT, Workload: "hashtable",
		N: 40, ValueSize: 32, Profile: true, Trace: tr, Cores: 2,
	})
	if r.Causes == nil {
		t.Fatal("no breakdown")
	}
	p, err := fromEvents(tr.Events(), tr.Dropped())
	if err != nil {
		t.Fatal(err)
	}
	// The tracer keeps recording through verification/collection; the
	// breakdown snapshot was taken at region end. Rebuilt counts must
	// match per core and cause for the charges up to the snapshot —
	// here there is no verify phase, so they match exactly.
	got := p.Breakdown(totalsOf(r.Causes))
	for i := range r.Causes.Cores {
		if got.Cores[i].Causes != r.Causes.Cores[i].Causes {
			t.Errorf("core %d: event-rebuilt attribution differs from live profile", i)
		}
	}
	if err := got.Conserved(); err != nil {
		t.Error(err)
	}
}

// fromEvents rebuilds a profile from a trace's KCharge events. It fails
// if the ring dropped events (the stream is incomplete, so conservation
// cannot hold) or if an event charges an unknown cause.
func fromEvents(events []trace.Event, dropped uint64) (*profile.Profile, error) {
	if dropped > 0 {
		return nil, fmt.Errorf("trace dropped %d events; attribution stream incomplete", dropped)
	}
	cores := 1
	for i := range events {
		cores = max(cores, int(events[i].Core)+1)
	}
	p := profile.New(cores)
	for i := range events {
		e := &events[i]
		if e.Kind != trace.KCharge {
			continue
		}
		if e.Addr == uint64(profile.CauseNone) || e.Addr > uint64(len(profile.Causes())) {
			return nil, fmt.Errorf("event %d charges unknown cause %d", i, e.Addr)
		}
		p.Add(int(e.Core), profile.Cause(e.Addr), e.Arg)
	}
	return p, nil
}

// TestFromEvents pins fromEvents on a hand-built stream: charges land
// on their core and cause, other kinds are skipped, and an incomplete
// stream or an unknown cause is rejected.
func TestFromEvents(t *testing.T) {
	tr := trace.New(64)
	tr.Emit(0, 10, trace.KCharge, uint64(profile.CauseCompute), 7)
	tr.Emit(1, 11, trace.KCharge, uint64(profile.CauseLogSync), 3)
	tr.Emit(0, 12, trace.KTxCommit, 0, 1) // non-charge events are ignored
	p, err := fromEvents(tr.Events(), tr.Dropped())
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores() != 2 {
		t.Fatalf("cores = %d, want 2", p.Cores())
	}
	b := p.Breakdown([]uint64{7, 3})
	if err := b.Conserved(); err != nil {
		t.Error(err)
	}

	if _, err := fromEvents(nil, 1); err == nil {
		t.Error("dropped events not rejected")
	}
	bad := []trace.Event{{Kind: trace.KCharge, Addr: uint64(profile.CauseNone), Arg: 1}}
	if _, err := fromEvents(bad, 0); err == nil {
		t.Error("charge against unknown cause not rejected")
	}
	bad[0].Addr = uint64(len(profile.Causes())) + 1
	if _, err := fromEvents(bad, 0); err == nil {
		t.Error("charge past the last cause not rejected")
	}
}

func totalsOf(b *profile.Breakdown) []uint64 {
	out := make([]uint64, len(b.Cores))
	for i := range b.Cores {
		out[i] = b.Cores[i].Total
	}
	return out
}

// TestWriteFolded pins the folded-stack line format flamegraph tools
// consume: semicolon-separated frames, space, count.
func TestWriteFolded(t *testing.T) {
	r := Run(RunConfig{
		Scheme: schemes.SLPMT, Workload: "hashtable",
		N: 20, ValueSize: 32, Profile: true,
	})
	var sb strings.Builder
	if err := profile.WriteFolded(&sb, "SLPMT;hashtable", r.Causes); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if out == "" {
		t.Fatal("empty folded output")
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		frames, count, ok := strings.Cut(line, " ")
		if !ok || count == "" {
			t.Fatalf("malformed folded line %q", line)
		}
		parts := strings.Split(frames, ";")
		if len(parts) != 5 || parts[0] != "SLPMT" || parts[1] != "hashtable" || parts[2] != "core0" {
			t.Fatalf("unexpected stack %q", frames)
		}
	}
}
