package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/persistmem/slpmt/internal/mem"
)

func newL1() *Cache {
	return New(Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 4})
}

// count returns the number of valid lines.
func count(c *Cache) int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}

func TestLookupMissThenInsert(t *testing.T) {
	c := newL1()
	if c.Lookup(0x1000) != nil {
		t.Fatal("hit on empty cache")
	}
	c.Insert(Line{Addr: 0x1000, State: Exclusive})
	l := c.Lookup(0x1000 + 63) // any byte of the line
	if l == nil || l.Addr != 0x1000 {
		t.Fatal("line not found after insert")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: lines 0, 128 map to set 0; 64, 192 to set 1.
	c := New(Config{Name: "t", SizeBytes: 4 * mem.LineSize, Ways: 2, LatencyCycles: 1})
	c.Insert(Line{Addr: 0, State: Exclusive})
	c.Insert(Line{Addr: 128, State: Exclusive})
	c.Lookup(0) // make 0 most recent
	_, victim, evicted := c.Insert(Line{Addr: 256, State: Exclusive})
	if !evicted || victim.Addr != 128 {
		t.Errorf("expected LRU victim 128, got %v evicted=%v", victim.Addr, evicted)
	}
	if c.Peek(0) == nil || c.Peek(256) == nil {
		t.Error("resident lines wrong after eviction")
	}
}

func TestInsertOverwritesInPlace(t *testing.T) {
	c := newL1()
	c.Insert(Line{Addr: 0x40, State: Modified, LogBits: 0x0F})
	_, _, evicted := c.Insert(Line{Addr: 0x40, State: Exclusive, LogBits: 0xF0})
	if evicted {
		t.Error("overwrite should not evict")
	}
	l := c.Peek(0x40)
	if l.LogBits != 0xF0 || l.State != Exclusive {
		t.Errorf("overwrite did not take: %+v", l)
	}
	if n := count(c); n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestRemove(t *testing.T) {
	c := newL1()
	c.Insert(Line{Addr: 0x80, State: Modified, TxID: 3})
	l, ok := c.Remove(0x80)
	if !ok || l.TxID != 3 {
		t.Fatal("remove lost line state")
	}
	if _, ok := c.Remove(0x80); ok {
		t.Error("double remove succeeded")
	}
}

func TestFoldReplicateLogBits(t *testing.T) {
	cases := []struct{ l1, l2 uint8 }{
		{0xFF, 0x03},
		{0x0F, 0x01},
		{0xF0, 0x02},
		{0x0E, 0x00}, // partial low group folds away
		{0x7F, 0x01},
		{0x00, 0x00},
	}
	for _, c := range cases {
		if got := FoldLogBits(c.l1); got != c.l2 {
			t.Errorf("Fold(%#x) = %#x, want %#x", c.l1, got, c.l2)
		}
	}
	// Replication is exact for folded values.
	if ReplicateLogBits(0x03) != 0xFF || ReplicateLogBits(0x01) != 0x0F || ReplicateLogBits(0x02) != 0xF0 {
		t.Error("replicate broken")
	}
}

// TestFoldConservative: folding then replicating never invents log bits
// (false positives would lose undo records); it may only drop them.
func TestFoldConservative(t *testing.T) {
	f := func(bits uint8) bool {
		round := ReplicateLogBits(FoldLogBits(bits))
		return round&^bits == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachVisitsValidLines(t *testing.T) {
	c := newL1()
	for i := 0; i < 10; i++ {
		c.Insert(Line{Addr: mem.Addr(i * 64), State: Modified})
	}
	if n := count(c); n != 10 {
		t.Errorf("ForEach visited %d, want 10", n)
	}
	for i := 0; i < 10; i += 2 {
		c.Remove(mem.Addr(i * 64))
	}
	c.ForEach(func(l *Line) {
		if l.Addr/64%2 == 0 {
			t.Errorf("ForEach visited removed line %#x", l.Addr)
		}
	})
	if n := count(c); n != 5 {
		t.Errorf("ForEach visited %d after removals, want 5", n)
	}
	if c.Peek(0) != nil || c.Peek(64) == nil {
		t.Error("Peek disagrees with the removals")
	}
}

// TestLineHoldsNoPointers guards the off-heap tag array: the collector
// never scans it, so a pointer stored in a Line would not keep its
// target alive.
func TestLineHoldsNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		case reflect.Array:
			check(path+"[0]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		}
	}
	check("Line", reflect.TypeOf(Line{}))
}

// TestLocateMatchesForEachOrder: Locate's index is the line's rank in
// ForEach order, so sorting located lines by it reproduces a full scan,
// and At resolves the index back to the line.
func TestLocateMatchesForEachOrder(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 16 * mem.LineSize, Ways: 4, LatencyCycles: 1})
	// Fill out of address order, with an eviction and a removal, so way
	// placement differs from insertion order.
	for _, a := range []mem.Addr{0x300, 0x40, 0x100, 0x500, 0x0, 0x200, 0x400, 0x80, 0x600} {
		c.Insert(Line{Addr: a, State: Exclusive})
	}
	c.Remove(0x200)
	prev := -1
	c.ForEach(func(l *Line) {
		got, idx := c.Locate(l.Addr + 8)
		if got != l || idx <= prev || idx >= c.Lines() || c.At(idx) != l {
			t.Errorf("Locate(%#x) = %p/%d after index %d; ForEach has %p", l.Addr, got, idx, prev, l)
		}
		prev = idx
	})
	if l, idx := c.Locate(0x200); l != nil || idx != -1 {
		t.Errorf("Locate of a removed line = %p/%d, want nil/-1", l, idx)
	}
	if _, misses, _ := c.Stats(); misses != 0 {
		t.Error("Locate touched the counters")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "bad", SizeBytes: 0, Ways: 4},
		{Name: "bad", SizeBytes: 192, Ways: 4},        // not divisible
		{Name: "bad", SizeBytes: 3 * 64 * 4, Ways: 4}, // sets not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("state strings broken")
	}
}
