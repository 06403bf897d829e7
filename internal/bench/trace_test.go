package bench

import (
	"reflect"
	"testing"

	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/ycsb"
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

// A StreamDir run records full detail: its binlog holds the cache and
// memory kinds the metrics mask drops, and the run populates the
// occupancy gauges.
func TestExternalTracerCapturesFullDetail(t *testing.T) {
	cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 60, ValueSize: 64, StreamDir: t.TempDir()}
	r := Run(cfg)
	kinds := map[trace.Kind]int{}
	for _, e := range binlogEvents(t, cfg.StreamDir) {
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

// Verification runs after the measured region, so a run's binlog
// holds the same events with Verify on and off (StreamDir's doc
// promises the region only).
func TestVerifyLeavesTraceRingToRegion(t *testing.T) {
	binlog := func(verify bool) []trace.Event {
		cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 80, ValueSize: 64, Cores: 2, Verify: verify,
			StreamDir: t.TempDir()}
		if r := Run(cfg); r.VerifyErr != nil {
			t.Fatal(r.VerifyErr)
		}
		return binlogEvents(t, cfg.StreamDir)
	}
	off, on := binlog(false), binlog(true)
	if len(off) == 0 || !reflect.DeepEqual(on, off) {
		t.Fatalf("binlog holds %d events with Verify on, %d with it off; want the same events", len(on), len(off))
	}
}

// A Metrics run reduces its events as its buffer spills, so a region
// with more masked events than 2^17 loses none: its Summary is the one
// a replay of its binlog reduces to.
func TestMetricsRunDropsNothing(t *testing.T) {
	cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 6000, ValueSize: 64, Metrics: true,
		StreamDir: t.TempDir()}
	got := Run(cfg)
	if got.Summary.Events <= 1<<17 {
		t.Fatalf("region holds %d masked events; size it past 2^17", got.Summary.Events)
	}
	if want := replayBinlog(t, got, trace.MetricsMask()); got.Summary != want.Summary {
		t.Fatalf("metrics run summary %+v, binlog replay %+v", got.Summary, want.Summary)
	}
}

// A run's tracer records nothing before the measured region, however
// much setup emits: a streamed YCSB-A run, whose 1000-record preload
// emits more events than the StreamRingEvents buffer holds, streams
// its region only — no more transactions than the mix's operations,
// with a clean sanitizer report that a replay of its binlog repeats.
func TestTracedMixRecordsRegionOnly(t *testing.T) {
	cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", Mix: ycsb.WorkloadA(), N: 100, ValueSize: 64,
		Verify: true, StreamDir: t.TempDir()}
	r := Run(cfg)
	if r.VerifyErr != nil {
		t.Fatal(r.VerifyErr)
	}
	rep := r.Sanitizer
	if rep == nil || rep.Transactions == 0 || rep.Transactions > cfg.N || !rep.Clean() {
		t.Fatalf("sanitizer report %+v: want 1..%d transactions and no violations", rep, cfg.N)
	}
	if got := len(binlogEvents(t, cfg.StreamDir)); got != r.Summary.Events {
		t.Fatalf("binlog holds %d events, the live summary counted %d", got, r.Summary.Events)
	}
	if want := replayBinlog(t, r, trace.AllKinds); r.Summary != want.Summary || !reflect.DeepEqual(rep, want.Sanitizer) {
		t.Fatalf("live summary %+v and report %+v, binlog replay %+v and %+v", r.Summary, rep, want.Summary, want.Sanitizer)
	}
}
