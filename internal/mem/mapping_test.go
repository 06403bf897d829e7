package mem_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
)

// TestMappingsReleased: the memory images and cache tag arrays of
// dropped machines are unmapped once collected, and a live machine
// stays usable.
func TestMappingsReleased(t *testing.T) {
	const machines, perMachine = 8, 7 // two images, an L3, two L1/L2 pairs
	kept := machine.New(machine.Config{Cores: 2}).Core(1)
	kept.WriteU64(kept.Layout.HeapBase, 99)
	kept.AccessLine(kept.Layout.HeapBase, true)
	before := mem.LiveMappings()
	for i := 0; i < machines; i++ {
		c := machine.New(machine.Config{Cores: 2}).Core(1)
		c.WriteU64(c.Layout.HeapBase, 1)
		c.AccessLine(c.Layout.HeapBase, true)
	}
	if n := mem.LiveMappings(); n < before+machines*perMachine {
		t.Fatalf("live mappings = %d after building %d machines, want at least %d", n, machines, before+machines*perMachine)
	}
	for i := 0; i < 500 && mem.LiveMappings() > before; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := mem.LiveMappings(); n > before {
		t.Errorf("live mappings = %d after GC, want at most %d", n, before)
	}
	if l := kept.L1.Peek(kept.Layout.HeapBase); l == nil || !l.Dirty() {
		t.Errorf("live machine's L1 line = %+v after GC, want a dirty line", l)
	}
	if v := kept.ReadU64(kept.Layout.HeapBase); v != 99 {
		t.Errorf("live machine read %d after GC, want 99", v)
	}
}

// TestRezero: a rezeroed mapping reads as zero everywhere, stays
// mapped, and takes writes again.
func TestRezero(t *testing.T) {
	const n = 3*4096/8 + 5 // spans pages, ends mid-page
	s := mem.MapZeroed[uint64](n)
	defer mem.Unmap(s)
	live := mem.LiveMappings()
	for i := range s {
		s[i] = uint64(i) + 1
	}
	mem.Rezero(s)
	for i, v := range s {
		if v != 0 {
			t.Fatalf("word %d = %d after Rezero, want 0", i, v)
		}
	}
	s[n-1] = 7
	if s[n-1] != 7 || mem.LiveMappings() != live {
		t.Errorf("after Rezero: write read back %d, live mappings %d (was %d)", s[n-1], mem.LiveMappings(), live)
	}
	mem.Rezero(s[:0]) // an empty slice is a no-op
}
