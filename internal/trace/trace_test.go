package trace

import (
	"errors"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, 1, KTxBegin, 2, 3)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must observe nothing")
	}
	tr.Flush() // must not panic
}

// A tracer without a sink holds every event it records, oldest first,
// and panics on the first event past its capacity instead of
// overwriting one.
func TestFullBufferWithoutSinkPanics(t *testing.T) {
	tr := New(4)
	for i := 0; i < 4; i++ {
		tr.Emit(1, uint64(i), KStore, uint64(100+i), 8)
	}
	evs := tr.Events()
	if len(evs) != 4 || tr.Len() != 4 {
		t.Fatalf("holds %d events (Len %d), want 4", len(evs), tr.Len())
	}
	for i, e := range evs {
		if e.Cycle != uint64(i) {
			t.Fatalf("event %d cycle = %d, want %d", i, e.Cycle, i)
		}
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, errBufferFull) {
			t.Fatalf("recording past capacity panicked with %v, want %v", err, errBufferFull)
		}
	}()
	tr.Emit(1, 4, KStore, 104, 8)
}

func TestMaskFiltersKinds(t *testing.T) {
	tr := New(8)
	tr.SetMask(Mask(KTxCommit))
	tr.Emit(0, 1, KStore, 0, 0)
	tr.Emit(0, 2, KTxCommit, 0, 7)
	tr.Emit(0, 3, KCacheMiss, 0, 2)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != KTxCommit || evs[0].Arg != 7 {
		t.Fatalf("mask leaked events: %+v", evs)
	}
}

func TestMetricsMaskCoversReducerKinds(t *testing.T) {
	m := MetricsMask()
	for _, k := range []Kind{KTxBegin, KCommitStart, KTxCommit, KTxAbort,
		KLazyDrainStart, KLazyDrainEnd, KWPQEnqueue, KWPQDrain, KWPQStall} {
		if m&(1<<uint(k)) == 0 {
			t.Errorf("metrics mask misses %v", k)
		}
	}
	for _, k := range []Kind{KStore, KCacheMiss, KCohSnoop} {
		if m&(1<<uint(k)) != 0 {
			t.Errorf("metrics mask should drop high-rate kind %v", k)
		}
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := KNone; k < numKinds; k++ {
		if kindNames[k] == "" {
			t.Errorf("kind %d has no display name", k)
		}
	}
}
