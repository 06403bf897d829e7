package trace

import "testing"

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, 1, KTxBegin, 2, 3)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must observe nothing")
	}
	tr.Reset() // must not panic
}

func TestRingOrderAndOverflow(t *testing.T) {
	tr := New(4)
	for i := 0; i < 6; i++ {
		tr.Emit(1, uint64(i), KStore, uint64(100+i), 8)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	evs := tr.Events()
	for i, e := range evs {
		want := uint64(i + 2) // oldest two overwritten
		if e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d", i, e.Cycle, want)
		}
	}
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
