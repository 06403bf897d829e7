package stats

import "testing"

func TestAddAndDelta(t *testing.T) {
	var a, b Counters
	a.Cycles = 10
	a.Stores = 3
	b.Cycles = 5
	b.PMWriteBytesLog = 64
	a.Add(&b)
	if a.Cycles != 15 || a.PMWriteBytesLog != 64 || a.Stores != 3 {
		t.Errorf("add: %+v", a)
	}
	snap := a.Snapshot()
	a.Cycles += 100
	d := a.Delta(snap)
	if d.Cycles != 100 || d.Stores != 0 {
		t.Errorf("delta: %+v", d)
	}
}

func TestPMWriteBytes(t *testing.T) {
	c := Counters{PMWriteBytesData: 100, PMWriteBytesLog: 28}
	if c.PMWriteBytes() != 128 {
		t.Error("PMWriteBytes sum wrong")
	}
}

func TestRowsFilterZeros(t *testing.T) {
	c := Counters{Cycles: 1, L1Hits: 2}
	rows := c.Rows()
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestNamed(t *testing.T) {
	c := Counters{WPQStallCycles: 9}
	if v, ok := c.Named("pm.wpq.stall.cycles"); !ok || v != 9 {
		t.Errorf("named lookup: %d %v", v, ok)
	}
	if v, ok := c.Named("cycles"); !ok || v != 0 {
		t.Errorf("zero counter must still resolve: %d %v", v, ok)
	}
	if _, ok := c.Named("bogus"); ok {
		t.Error("bogus name resolved")
	}
}

func TestStringRendersNonZero(t *testing.T) {
	c := Counters{Cycles: 7}
	if s := c.String(); s == "" {
		t.Error("empty render")
	}
	c.Reset()
	if c.Cycles != 0 {
		t.Error("reset failed")
	}
}

func TestNamesSortedUnique(t *testing.T) {
	names := Names()
	if len(names) < 30 {
		t.Errorf("suspiciously few counters: %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("names not sorted/unique at %q", names[i])
		}
	}
}

// TestAddAndDeltaAllocateNothing: both walk canonicalRows' array on the
// stack. Every measured run calls them (perfbench once per cell).
func TestAddAndDeltaAllocateNothing(t *testing.T) {
	a := Counters{Cycles: 1, WPQOccMaxBytes: 3}
	b := Counters{Cycles: 2, WPQOccMaxBytes: 5}
	var d Counters
	if n := testing.AllocsPerRun(100, func() { a.Add(&b) }); n != 0 {
		t.Errorf("Add: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d = a.Delta(b) }); n != 0 {
		t.Errorf("Delta: %.0f allocations, want 0", n)
	}
	if d.Cycles != a.Cycles-b.Cycles || d.WPQOccMaxBytes != a.WPQOccMaxBytes {
		t.Errorf("Delta = %+v", d)
	}
}
