package cache

import (
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
)

// Layer micro-benchmarks: run with
// `go test -run '^$' -bench . -benchmem ./internal/cache/`.

// benchLines is the number of distinct lines the benchmarks cycle
// through: four times an L1's capacity, so Insert evicts and Lookup
// mixes hits and misses.
const benchLines = 4 * (32 << 10) / mem.LineSize

var sinkLine *Line

func BenchmarkLookup(b *testing.B) {
	c := newL1()
	for i := 0; i < benchLines; i++ {
		c.Insert(Line{Addr: mem.Addr(i) * mem.LineSize, State: Exclusive})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLine = c.Lookup(mem.Addr(i%benchLines) * mem.LineSize)
	}
}

func BenchmarkInsert(b *testing.B) {
	c := newL1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLine, _, _ = c.Insert(Line{Addr: mem.Addr(i%benchLines) * mem.LineSize, State: Modified})
	}
}

func BenchmarkLocate(b *testing.B) {
	c := newL1()
	for i := 0; i < benchLines; i++ {
		c.Insert(Line{Addr: mem.Addr(i) * mem.LineSize, State: Exclusive})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLine, _ = c.Locate(mem.Addr(i%benchLines) * mem.LineSize)
	}
}
