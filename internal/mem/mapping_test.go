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
