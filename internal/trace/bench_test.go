package trace

import "testing"

// The disabled-tracer path is on the simulator's hottest loops (every
// store, cache access, and persist), so its cost is contractual: zero
// allocations and on the order of a nanosecond per call.

func TestDisabledPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(0, 123, KStore, 456, 8)
	}); n != 0 {
		t.Fatalf("disabled Emit allocates %v/op, want 0", n)
	}
	masked := New(16)
	masked.SetMask(Mask(KTxCommit))
	if n := testing.AllocsPerRun(1000, func() {
		masked.Emit(0, 123, KStore, 456, 8)
	}); n != 0 {
		t.Fatalf("masked Emit allocates %v/op, want 0", n)
	}
}

func TestEnabledPathAllocatesNothing(t *testing.T) {
	tr := New(1 << 6)
	tr.SetSink(recycleSink{})
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(0, 123, KStore, 456, 8)
	}); n != 0 {
		t.Fatalf("enabled Emit allocates %v/op, want 0 (the buffer is preallocated and its spills recycle it)", n)
	}
}

// BenchmarkEmitDisabled measures the nil-receiver fast path; expect
// sub-nanosecond per op and 0 B/op.
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, uint64(i), KStore, 0, 8)
	}
}

// BenchmarkEmitMasked measures the mask-rejected path of a live tracer.
func BenchmarkEmitMasked(b *testing.B) {
	tr := New(1 << 10)
	tr.SetMask(Mask(KTxCommit))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, uint64(i), KStore, 0, 8)
	}
}

// recycleSink hands every spilled buffer straight back, so a tracer
// records without bound and without allocating.
type recycleSink struct{}

func (recycleSink) Spill(events []Event) []Event { return events[:0] }

// BenchmarkEmitEnabled measures a recording emit into the buffer,
// spills to a sink included; expect 0 B/op.
func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(1 << 16)
	tr.SetSink(recycleSink{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, uint64(i), KStore, 0, 8)
	}
}
