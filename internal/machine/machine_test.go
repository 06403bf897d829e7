package machine

import (
	"testing"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/mem"
)

func newM() *Core { return New(Config{}).Core(0) }

func TestAccessLatencies(t *testing.T) {
	m := newM()
	addr := m.Layout.HeapBase

	// Cold access: L1 + L2 + L3 probes + PM read.
	c0 := m.Clk
	m.AccessLine(addr, false)
	cold := m.Clk - c0
	want := uint64(4 + 12 + 40 + 300)
	if cold != want {
		t.Errorf("cold access cost %d, want %d", cold, want)
	}

	// Hot access: L1 hit.
	c1 := m.Clk
	m.AccessLine(addr, false)
	if hot := m.Clk - c1; hot != 4 {
		t.Errorf("hot access cost %d, want 4", hot)
	}
	if m.Stats.L1Hits != 1 || m.Stats.L3Misses != 1 {
		t.Errorf("stats: %d hits, %d l3 misses", m.Stats.L1Hits, m.Stats.L3Misses)
	}
}

func TestWriteMakesModified(t *testing.T) {
	m := newM()
	l := m.AccessLine(m.Layout.HeapBase, true)
	if l.State != cache.Modified {
		t.Errorf("state after write = %v", l.State)
	}
}

func TestMetadataFoldAcrossL1Eviction(t *testing.T) {
	m := newM()
	base := m.Layout.HeapBase
	l := m.AccessLine(base, true)
	l.LogBits = 0x0F // low 32-byte group fully logged
	l.Persist = true
	l.TxID = 2

	// Evict by filling the same L1 set: L1 is 64 sets * 8 ways; lines
	// mapping to the same set are 64*64 bytes apart.
	stride := mem.Addr(64 * 64)
	for i := 1; i <= 8; i++ {
		m.AccessLine(base+stride*mem.Addr(i), false)
	}
	if m.L1.Peek(base) != nil {
		t.Fatal("line not evicted from L1")
	}
	l2 := m.L2.Peek(base)
	if l2 == nil {
		t.Fatal("line not in L2")
	}
	if l2.LogBits != 0x01 {
		t.Errorf("folded log bits = %#x, want 0x01", l2.LogBits)
	}
	if !l2.Persist || l2.TxID != 2 {
		t.Error("persist/txid lost on demotion")
	}

	// Refetch into L1: bits replicate back.
	l1 := m.AccessLine(base, false)
	if l1.LogBits != 0x0F {
		t.Errorf("replicated log bits = %#x, want 0x0F", l1.LogBits)
	}
}

func TestL3StripsMetadataAndWritebacks(t *testing.T) {
	m := newM()
	base := m.Layout.HeapBase
	m.WriteMem(base, []byte{0xEE})
	l := m.AccessLine(base, true)
	l.LogBits = 0xFF
	l.TxID = 1

	var evicted *cache.Line
	m.OnL2Evict = func(l cache.Line) cache.Line {
		if l.Addr == base {
			evicted = &l
		}
		return l
	}
	// Push the line to L3 by saturating its L1 and L2 sets (same-set
	// stride 64 KiB), without also overflowing the L3 set.
	for i := 1; i <= 20; i++ {
		m.AccessLine(base+mem.Addr(i)*64*1024, false)
	}
	if m.L1.Peek(base) != nil || m.L2.Peek(base) != nil {
		t.Fatal("line not pushed out of the private caches")
	}
	if evicted == nil {
		t.Fatal("OnL2Evict hook not called")
	}
	l3 := m.Machine().L3.Peek(base)
	if l3 == nil {
		t.Fatal("line not in L3")
	}
	if l3.LogBits != 0 || l3.TxID != 0 || l3.Persist {
		t.Error("L3 carries SLPMT metadata")
	}
	// Refetch: metadata starts zeroed (the §III-B1 duplicate-logging case).
	l1 := m.AccessLine(base, false)
	if l1.LogBits != 0 {
		t.Error("metadata resurrected from L3")
	}
}

func TestPersistLineDurability(t *testing.T) {
	m := newM()
	a := m.Layout.HeapBase
	m.WriteU64(a, 777)
	m.AccessLine(a, true)
	if !m.PersistLine(a) {
		t.Fatal("dirty line persist skipped")
	}
	if m.PM.ReadU64(a) != 777 {
		t.Error("durable image missing persisted value")
	}
	// Second persist is redundant: line clean now.
	if m.PersistLine(a) {
		t.Error("clean line persisted again")
	}
}

func TestForcePersistUncached(t *testing.T) {
	m := newM()
	a := m.Layout.HeapBase + 4096
	m.WriteU64(a, 42)
	m.ForcePersistLine(a)
	if m.PM.ReadU64(a) != 42 {
		t.Error("force persist did not reach PM")
	}
}

func TestPersistData(t *testing.T) {
	m := newM()
	a := m.Layout.HeapBase + 60 // spans two lines
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.PersistData(a, data)
	got := make([]byte, 8)
	m.PM.Read(a, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("durable byte %d = %d", i, got[i])
		}
	}
	vol := make([]byte, 8)
	m.ReadMem(a, vol)
	if vol[0] != 1 {
		t.Error("volatile image not updated")
	}
}

func TestDropLineAndRestore(t *testing.T) {
	m := newM()
	a := m.Layout.HeapBase
	m.WriteU64(a, 1)
	m.AccessLine(a, true)
	m.PersistLine(a)
	m.WriteU64(a, 2) // newer volatile value, not persisted
	m.DropLine(a)
	m.RestoreLineFromDurable(a)
	if m.ReadU64(a) != 1 {
		t.Errorf("restored volatile = %d, want durable 1", m.ReadU64(a))
	}
}

func TestWritebackFilterSuppresses(t *testing.T) {
	m := newM()
	a := m.Layout.HeapBase
	m.WriteU64(a, 99)
	m.AccessLine(a, true)
	m.WritebackFilter = func(addr mem.Addr) bool { return false }
	m.writeback(mem.LineAddr(a))
	if m.PM.ReadU64(a) == 99 {
		t.Error("suppressed writeback reached PM")
	}
	m.WritebackFilter = nil
	m.writeback(mem.LineAddr(a))
	if m.PM.ReadU64(a) != 99 {
		t.Error("unfiltered writeback did not reach PM")
	}
}

func TestCrashInjection(t *testing.T) {
	m := newM()
	m.Machine().CrashAfterTotal = 2
	a := m.Layout.HeapBase
	m.WriteU64(a, 5)
	m.AccessLine(a, true)
	m.PersistLine(a) // event 1
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if sig, ok := r.(CrashSignal); ok && sig.At == 2 {
					crashed = true
				} else {
					panic(r)
				}
			}
		}()
		m.WriteU64(a+64, 6)
		m.AccessLine(a+64, true)
		m.PersistLine(a + 64) // event 2 -> crash
	}()
	if !crashed {
		t.Fatal("crash did not fire")
	}
	// The crashing write itself completed (it reached the persist domain).
	if m.PM.ReadU64(a+64) != 6 {
		t.Error("crashing persist lost")
	}
}

func TestPersistCountsTraffic(t *testing.T) {
	m := newM()
	a := m.Layout.HeapBase
	m.AccessLine(a, true)
	m.PersistLine(a)
	if m.Stats.PMWriteBytesData != 64 || m.Stats.PMWriteEntries != 1 {
		t.Errorf("traffic: data=%d entries=%d", m.Stats.PMWriteBytesData, m.Stats.PMWriteEntries)
	}
	m.PersistLogLine(m.Layout.LogBase, []byte{1, 2, 3})
	if m.Stats.PMWriteBytesLog != 64 {
		t.Errorf("log traffic = %d, want line-granular 64", m.Stats.PMWriteBytesLog)
	}
}
