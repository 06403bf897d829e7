package logbuf

import (
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
)

// fillLines inserts every word of n consecutive lines starting at base,
// so each line coalesces up to one tier-3 record; the ninth line's
// records drain tier 3.
func fillLines(b *Buffer, payload []byte, base mem.Addr, n int) {
	for l := 0; l < n; l++ {
		for w := 0; w < mem.WordsPerLine; w++ {
			b.Insert(Record{Addr: base + mem.Addr(l*mem.LineSize+w*mem.WordSize), Data: payload})
		}
	}
}

// TestInsertFlushDrainAllocFree pins the buffer's record path at zero
// heap allocations: coalescing up to tier 3 (merged payloads live in
// the buffer's own storage), a tier drain, FlushLine and DrainAll.
func TestInsertFlushDrainAllocFree(t *testing.T) {
	spilled := 0
	b := New(func(rs []Record) { spilled += len(rs) })
	payload := make([]byte, mem.WordSize)
	run := func() {
		fillLines(b, payload, 0x10000, TierRecords+1)
		b.Insert(Record{Addr: 0x20000, Data: payload})
		b.Insert(Record{Addr: 0x20010, Data: payload})
		b.FlushLine(0x20000)
		b.DrainAll()
	}
	run() // grow FlushLine's reusable slice
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("insert/flush/drain allocates %.1f times per run, want 0", allocs)
	}
	if s := b.Stats(); s.Coalesced == 0 || s.Stalls == 0 || spilled == 0 {
		t.Fatalf("run exercised too little: %+v, %d spilled", s, spilled)
	}
}

// Layer micro-benchmarks: run with
// `go test -run '^$' -bench . -benchmem ./internal/logbuf/`.

// BenchmarkInsertIsolated inserts words of distinct lines: no buddy
// ever matches, so every eighth insert drains tier 0.
func BenchmarkInsertIsolated(b *testing.B) {
	buf := New(func([]Record) {})
	data := make([]byte, mem.WordSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Insert(Record{Addr: mem.Addr(i%(1<<16)) * mem.LineSize, Data: data})
	}
}

// BenchmarkInsertMerge inserts the words of consecutive lines, so each
// line coalesces through every tier into one 64-byte record (seven
// merges per eight inserts).
func BenchmarkInsertMerge(b *testing.B) {
	buf := New(func([]Record) {})
	data := make([]byte, mem.WordSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Insert(Record{Addr: mem.Addr(i%(1<<16)) * mem.WordSize, Data: data})
	}
}
