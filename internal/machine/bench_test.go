package machine

import (
	"testing"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/mem"
)

// cascadeStride maps consecutive lines to the same L1 and L2 set and to
// two alternating L3 sets, so cycling through cascadeLines written
// lines evicts at every level: L1 -> L2 demotions, L2 -> L3 evictions
// through the engine hooks, and dirty L3 victims written back to PM.
const (
	cascadeStride = 64 << 10
	cascadeLines  = 48
)

// withEvictionHooks installs hooks shaped like the engine's: both take
// and return the line by value and mutate its metadata.
func withEvictionHooks(m *Core) {
	m.OnL1Demote = func(l cache.Line) cache.Line {
		l.LogBits |= 0x0F
		return l
	}
	m.OnL2Evict = func(l cache.Line) cache.Line {
		l.Persist = false
		return l
	}
}

// evictStore is one store of the cascade. The compute gap lets the WPQ
// retire the posted writebacks; without it the queue would grow with
// every iteration.
func evictStore(m *Core, i int) {
	m.AccessLine(m.Layout.HeapBase+mem.Addr(i%cascadeLines)*cascadeStride, true)
	m.Tick(2000)
}

func cascade(m *Core) {
	for i := 0; i < cascadeLines; i++ {
		evictStore(m, i)
	}
}

// TestEvictionCascadeAllocFree pins the demotion path at zero heap
// allocations: a victim line passes through both hooks by value.
func TestEvictionCascadeAllocFree(t *testing.T) {
	m := newM()
	withEvictionHooks(m)
	cascade(m) // warm the caches and the WPQ
	allocs := testing.AllocsPerRun(20, func() { cascade(m) })
	if allocs != 0 {
		t.Errorf("eviction cascade allocates %.1f times per run, want 0", allocs)
	}
	if m.Stats.L2Evicts == 0 || m.Stats.L3Evicts == 0 || m.Stats.L3Writebacks == 0 {
		t.Fatalf("cascade did not reach every level: %d L2 evictions, %d L3 evictions, %d writebacks",
			m.Stats.L2Evicts, m.Stats.L3Evicts, m.Stats.L3Writebacks)
	}
}

// BenchmarkAccessLineEvict measures one store through a full eviction
// cascade (run with `go test -run '^$' -bench . -benchmem
// ./internal/machine/`).
func BenchmarkAccessLineEvict(b *testing.B) {
	m := newM()
	withEvictionHooks(m)
	cascade(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evictStore(m, i)
	}
}

// BenchmarkAccessLineHit measures an L1 hit.
func BenchmarkAccessLineHit(b *testing.B) {
	m := newM()
	m.AccessLine(m.Layout.HeapBase, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AccessLine(m.Layout.HeapBase, true)
	}
}

var sinkMachine *Machine

// BenchmarkNew measures building a default single-core machine: its
// memory images and its L1, L2 and L3 tag arrays.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMachine = New(Config{})
	}
}
