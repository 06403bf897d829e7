package bench

import (
	"testing"

	"github.com/persistmem/slpmt/internal/trace"
)

// Tracing is observation-only: a traced run must report exactly the
// cycles and counters of an untraced run of the same config. The
// occupancy gauges are the one sanctioned difference on a single core
// (they are only measured when a tracer restarts the occupancy window),
// so they are zeroed before comparing.
func TestTracedRunIsTimingInvariant(t *testing.T) {
	for _, cores := range []int{1, 2} {
		base := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 120, ValueSize: 64, Cores: cores}
		plain := Run(base)

		traced := base
		traced.Metrics = true
		got := Run(traced)

		if got.Cycles != plain.Cycles {
			t.Fatalf("cores=%d: traced run changed timing: %d != %d cycles", cores, got.Cycles, plain.Cycles)
		}
		gc, pc := got.Counters, plain.Counters
		gc.WPQOccMaxBytes, gc.WPQOccAvgBytes = 0, 0
		pc.WPQOccMaxBytes, pc.WPQOccAvgBytes = 0, 0
		if gc != pc {
			t.Fatalf("cores=%d: traced run changed counters:\ntraced:\n%s\nplain:\n%s", cores, gc.String(), pc.String())
		}
		if got.Summary.Commits == 0 {
			t.Fatalf("cores=%d: traced run reduced no commits", cores)
		}
		if got.Summary.CommitP50 == 0 || got.Summary.CommitP99 < got.Summary.CommitP50 {
			t.Fatalf("cores=%d: implausible commit percentiles: %+v", cores, got.Summary)
		}
	}
}

// A caller-supplied full-detail tracer must capture the cache and
// memory kinds the metrics mask drops, and the run must populate the
// occupancy gauges.
func TestExternalTracerCapturesFullDetail(t *testing.T) {
	tr := trace.New(1 << 16)
	r := Run(RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 60, ValueSize: 64, Trace: tr})
	kinds := map[trace.Kind]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KTxBegin, trace.KTxCommit, trace.KStore, trace.KCacheMiss, trace.KWPQEnqueue, trace.KWPQDrain} {
		if kinds[k] == 0 {
			t.Errorf("full trace is missing %v events", k)
		}
	}
	if r.Counters.WPQOccMaxBytes == 0 {
		t.Error("traced run must report the WPQ high-water mark")
	}
	if r.Summary.Commits == 0 {
		t.Error("summary must cover the run's commits")
	}
}

// Verification runs after the measured region, so a caller's ring must
// hold the same events with Verify on and off (the field's doc promises
// the region only), and the tracer must keep its filter afterwards.
func TestVerifyLeavesTraceRingToRegion(t *testing.T) {
	ring := func(verify bool) *trace.Tracer {
		tr := trace.New(1 << 14)
		r := Run(RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 80, ValueSize: 64, Cores: 2, Verify: verify, Trace: tr})
		if r.VerifyErr != nil {
			t.Fatal(r.VerifyErr)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("ring too small: %d events dropped", tr.Dropped())
		}
		return tr
	}
	off, on := ring(false), ring(true)
	if on.Len() != off.Len() {
		t.Fatalf("ring holds %d events with Verify on, %d with it off", on.Len(), off.Len())
	}
	if on.Mask() != trace.AllKinds {
		t.Fatalf("tracer filter after Run = %#x, want AllKinds", on.Mask())
	}
}

// A Metrics run reduces its events as the ring spills, so a region
// with more masked events than a whole-region ring of 2^17 held drops
// none, and its Summary is the one a caller's ring large enough for
// the region reduces to.
func TestMetricsRunDropsNothing(t *testing.T) {
	cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 6000, ValueSize: 64, Metrics: true}
	got := Run(cfg)
	if got.Summary.Dropped != 0 {
		t.Fatalf("metrics run dropped %d events", got.Summary.Dropped)
	}
	if got.Summary.Events <= 1<<17 {
		t.Fatalf("region holds %d masked events; size it past 2^17", got.Summary.Events)
	}
	tr := trace.New(1 << 20)
	tr.SetMask(trace.MetricsMask())
	ref := cfg
	ref.Metrics, ref.Trace = false, tr
	want := Run(ref)
	if tr.Dropped() != 0 {
		t.Fatalf("reference ring dropped %d events; enlarge it", tr.Dropped())
	}
	if got.Summary != want.Summary {
		t.Fatalf("metrics run summary %+v, caller ring %+v", got.Summary, want.Summary)
	}
}
