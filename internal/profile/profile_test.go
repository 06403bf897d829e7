package profile

import (
	"strings"
	"testing"
)

// TestCauseTablesComplete pins what slpmtvet also enforces statically:
// every cause has a nonempty unique name, a group from the canonical
// set, and at least one witnessing trace kind.
func TestCauseTablesComplete(t *testing.T) {
	groups := map[string]bool{}
	for _, g := range Groups() {
		groups[g] = true
	}
	seen := map[string]Cause{}
	for _, c := range Causes() {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "cause(") {
			t.Errorf("cause %d has no canonical name", c)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("causes %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
		if !groups[c.Group()] {
			t.Errorf("cause %s has group %q outside Groups()", name, c.Group())
		}
		if len(c.Kinds()) == 0 {
			t.Errorf("cause %s maps to no trace kind", name)
		}
		got, ok := ByName(name)
		if !ok || got != c {
			t.Errorf("ByName(%q) = %v, %v; want %v", name, got, ok, c)
		}
	}
}

func TestConserved(t *testing.T) {
	p := New(2)
	p.Add(0, CauseCompute, 70)
	p.Add(0, CauseL1Hit, 30)
	p.Add(1, CauseLogAppend, 50)

	if err := p.Breakdown([]uint64{100, 50}).Conserved(); err != nil {
		t.Errorf("conserved breakdown rejected: %v", err)
	}
	if err := p.Breakdown([]uint64{101, 50}).Conserved(); err == nil {
		t.Error("unattributed residue not detected")
	} else if !strings.Contains(err.Error(), "core 0") {
		t.Errorf("wrong core blamed: %v", err)
	}
	if err := p.Breakdown([]uint64{100, 49}).Conserved(); err == nil {
		t.Error("over-attribution not detected")
	}
}

func TestConservedRejectsNoneCharges(t *testing.T) {
	p := New(1)
	p.Add(0, CauseNone, 5)
	if err := p.Breakdown([]uint64{5}).Conserved(); err == nil {
		t.Error("charge against the none sentinel not detected")
	}
}

func TestResetAndMerge(t *testing.T) {
	p := New(2)
	p.Add(0, CauseCompute, 10)
	p.Add(1, CauseCompute, 20)
	p.Add(1, CauseWPQStall, 5)
	b := p.Breakdown([]uint64{10, 25})
	if m := b.Merged(); m[CauseCompute] != 30 || m[CauseWPQStall] != 5 {
		t.Errorf("merged vector wrong: %v", m)
	}
	if got := b.TotalCycles(); got != 35 {
		t.Errorf("TotalCycles = %d, want 35", got)
	}
	by := b.ByName()
	if by["compute"] != 30 || by["wpq.stall"] != 5 || len(by) != 2 {
		t.Errorf("ByName wrong: %v", by)
	}
	bg := b.ByGroup()
	if bg["compute"] != 30 || bg["wpq"] != 5 || len(bg) != 2 {
		t.Errorf("ByGroup wrong: %v", bg)
	}
	p.Reset()
	merged := p.Breakdown([]uint64{0, 0}).Merged()
	if got := merged.Sum(); got != 0 {
		t.Errorf("Reset left %d cycles", got)
	}
}

func TestSortedNames(t *testing.T) {
	p := New(1)
	p.Add(0, CauseCompute, 5)
	p.Add(0, CauseLogAppend, 50)
	p.Add(0, CauseL1Hit, 5)
	names := p.Breakdown([]uint64{60}).SortedNames()
	if len(names) != 3 || names[0] != "log.append" {
		t.Errorf("SortedNames = %v", names)
	}
	// Equal counts tie-break by name.
	if names[1] != "compute" || names[2] != "l1.hit" {
		t.Errorf("tie-break wrong: %v", names)
	}
}
