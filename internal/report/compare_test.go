package report

import (
	"strings"
	"testing"
)

// fixture builds a one-result report holding every kind of result
// field: scalars, maps, and lists of objects. Each call returns fresh
// maps and slices, so a candidate copy can be edited freely.
func fixture() Report {
	return Report{
		Experiment: "headline",
		Runs:       1,
		Results: []Result{{
			Scheme: "SLPMT", Workload: "hashtable", N: 1000, ValueSize: 256,
			Cycles:           1_000_000,
			PMWriteBytesData: 400_000,
			PMWriteBytesLog:  100_000,
			PMWriteBytes:     500_000,
			TxCommits:        1000,
			VerifyOK:         true,
			CommitLatencyP50: 800, CommitLatencyP95: 1200, CommitLatencyP99: 2000,
			CyclesByCause: map[string]uint64{
				"compute":    600_000,
				"log.append": 300_000,
				"wpq.stall":  100_000,
			},
			WPQSocketOccMax:     map[string]uint64{"0": 4096, "1": 2048},
			CritPathLen:         1_000_000,
			CritPathHops:        1,
			CriticalPathByCause: map[string]uint64{"compute": 700_000, "wpq.stall": 300_000},
			CritPathSteps: []CritStep{
				{Core: 0, Cause: "compute", Start: 0, End: 600_000, Edge: "program"},
				{Core: 1, Cause: "wpq.stall", Start: 600_000, End: 1_000_000, Edge: "wpq.drain"},
			},
			HotLines: []HotLine{{Addr: "0x40", Score: 12, Transfers: 12}},
		}},
	}
}

// change is a one-value edit of a candidate copy of fixture, and the
// failure line it must produce.
type change struct {
	name string
	edit func(c *Report)
	want string
}

// assertFails checks that each change fails the gate with a failure
// naming its path and both values.
func assertFails(t *testing.T, changes []change) {
	t.Helper()
	for _, ch := range changes {
		cand := fixture()
		ch.edit(&cand)
		c := Compare(fixture(), cand)
		if c.Pass() || !strings.Contains(strings.Join(c.Failures, "\n"), ch.want) {
			t.Errorf("%s: want a failure naming %q:\n%s", ch.name, ch.want, c)
		}
	}
}

// key is fixture's result key.
var key = fixture().Results[0].Key()

// fixtureLeaves counts fixture's result values: 15 nonzero scalar
// fields, 3+2+2 map entries, 2 steps of 5 fields and a hot line of 3
// (its zero counters are omitted).
const fixtureLeaves = 15 + 7 + 10 + 3

func TestCompareIdentical(t *testing.T) {
	c := Compare(fixture(), fixture())
	if !c.Pass() {
		t.Fatalf("identical reports failed:\n%s", c)
	}
	if c.Checked != fixtureLeaves {
		t.Errorf("checked %d values, want every leaf (%d)", c.Checked, fixtureLeaves)
	}
	if want := "PASS headline: 35 values compared, 0 differences\n"; c.String() != want {
		t.Errorf("summary %q, want %q", c.String(), want)
	}
}

// An experiment that records no results must not pass its gate with
// nothing compared, on either side of the comparison.
func TestCompareFailsOnEmptyReports(t *testing.T) {
	empty := fixture()
	empty.Results = nil
	for want, c := range map[string]*Comparison{
		"baseline holds 0 results, candidate 1": Compare(empty, fixture()),
		"baseline holds 1 results, candidate 0": Compare(fixture(), empty),
	} {
		if c.Pass() || !strings.Contains(c.String(), want) {
			t.Errorf("want a failure naming %q:\n%s", want, c)
		}
	}
}

// TestCompareRegression: a one-unit change anywhere in a result fails,
// in the totals, the percentiles and the critical-path analysis alike.
func TestCompareRegression(t *testing.T) {
	assertFails(t, []change{
		{"cycles +1", func(c *Report) { c.Results[0].Cycles++ }, key + " cycles: 1000000 -> 1000001"},
		{"percentile +1", func(c *Report) { c.Results[0].CommitLatencyP99++ }, key + " commit_latency_p99: 2000 -> 2001"},
		{"critical-path step +1", func(c *Report) { c.Results[0].CritPathSteps[1].End++ },
			key + " critpath_steps[1].end_cycle: 1000000 -> 1000001"},
		{"critical-path cause +7", func(c *Report) { c.Results[0].CriticalPathByCause["compute"] += 7 },
			key + " critical_path_by_cause.compute: 700000 -> 700007"},
		{"hot line +1", func(c *Report) { c.Results[0].HotLines[0].Transfers++ }, key + " hot_lines[0].transfers: 12 -> 13"},
		{"socket WPQ maximum +64", func(c *Report) { c.Results[0].WPQSocketOccMax["1"] += 64 },
			key + " wpq_socket_occ_max.1: 2048 -> 2112"},
	})
	cand := fixture()
	cand.Results[0].Cycles++
	if c := Compare(fixture(), cand); !strings.HasPrefix(c.String(), "FAIL headline: 35 values compared, 1 differences\n") {
		t.Errorf("summary line wrong: %q", c.String())
	}
}

// TestCompareSymmetric: an improvement fails too, since the committed
// baseline must be refreshed to describe the tree.
func TestCompareSymmetric(t *testing.T) {
	assertFails(t, []change{
		{"cycles -1", func(c *Report) { c.Results[0].Cycles-- }, key + " cycles: 1000000 -> 999999"},
		{"socket WPQ maximum -64", func(c *Report) { c.Results[0].WPQSocketOccMax["0"] -= 64 },
			key + " wpq_socket_occ_max.0: 4096 -> 4032"},
	})
}

// TestCompareExactMetrics: counts and labels are compared like every
// other value.
func TestCompareExactMetrics(t *testing.T) {
	assertFails(t, []change{
		{"tx_commits -1", func(c *Report) { c.Results[0].TxCommits-- }, key + " tx_commits: 1000 -> 999"},
		{"hops +1", func(c *Report) { c.Results[0].CritPathHops++ }, key + " critpath_hops: 1 -> 2"},
		{"hot line address", func(c *Report) { c.Results[0].HotLines[0].Addr = "0x80" }, key + ` hot_lines[0].addr: "0x40" -> "0x80"`},
	})
}

// TestCompareToleratedDrift: changes of a few percent fail, as every
// other change does; no tolerance forgives them.
func TestCompareToleratedDrift(t *testing.T) {
	assertFails(t, []change{
		{"cycles -3.85%", func(c *Report) { c.Results[0].Cycles = 961_500 }, key + " cycles: 1000000 -> 961500"},
		{"PM traffic +3.09%", func(c *Report) { c.Results[0].PMWriteBytes = 515_450 }, key + " pm_write_bytes: 500000 -> 515450"},
		{"cause +5%", func(c *Report) { c.Results[0].CyclesByCause["compute"] = 630_000 },
			key + " cycles_by_cause.compute: 600000 -> 630000"},
	})
}

// TestCompareCauseFloor: a cause of a few cycles is compared like a
// large one; a one-cycle change fails.
func TestCompareCauseFloor(t *testing.T) {
	assertFails(t, []change{
		{"cause +1", func(c *Report) { c.Results[0].CyclesByCause["wpq.stall"]++ },
			key + " cycles_by_cause.wpq.stall: 100000 -> 100001"},
		{"cause -1", func(c *Report) { c.Results[0].CyclesByCause["log.append"]-- },
			key + " cycles_by_cause.log.append: 300000 -> 299999"},
	})
}

func TestCompareVerifyRegression(t *testing.T) {
	assertFails(t, []change{
		{"verify_ok regressed", func(c *Report) { c.Results[0].VerifyOK = false }, key + " verify_ok: true -> false"},
	})
}

// TestCompareMetricRemoved: a field, map entry or list entry missing
// from the candidate fails.
func TestCompareMetricRemoved(t *testing.T) {
	assertFails(t, []change{
		{"percentile removed", func(c *Report) { c.Results[0].CommitLatencyP50 = 0 }, key + " commit_latency_p50: 800 -> absent"},
		{"cause removed", func(c *Report) { delete(c.Results[0].CyclesByCause, "wpq.stall") },
			key + " cycles_by_cause.wpq.stall: 100000 -> absent"},
		{"step removed", func(c *Report) { c.Results[0].CritPathSteps = c.Results[0].CritPathSteps[:1] },
			key + " critpath_steps[1]: {5 fields} -> absent"},
		{"hot lines removed", func(c *Report) { c.Results[0].HotLines = nil }, key + " hot_lines: [1 entries] -> absent"},
	})
}

// TestCompareMetricAdded: a field or map entry new in the candidate
// fails, so a new report field lands with its baseline refresh.
func TestCompareMetricAdded(t *testing.T) {
	assertFails(t, []change{
		{"percentile added", func(c *Report) { c.Results[0].LazyDrainP50 = 50 }, key + " lazy_drain_p50: absent -> 50"},
		{"cause added", func(c *Report) { c.Results[0].CyclesByCause["commit.marker"] = 100 },
			key + " cycles_by_cause.commit.marker: absent -> 100"},
	})
}

// TestCompareResultSetDrift: a result missing from either document
// fails; results pair up by key whatever order they are listed in.
// (Two results sharing a key fail Load: TestLoadRejectsRepeatedKey.)
func TestCompareResultSetDrift(t *testing.T) {
	extra := fixture().Results[0]
	extra.Cores = 4
	assertFails(t, []change{
		{"result missing", func(c *Report) { c.Results[0].Workload = "avl" }, key + ": result missing from candidate"},
		{"result added", func(c *Report) { c.Results = append(c.Results, extra) }, extra.Key() + ": result absent from baseline"},
	})

	pair := fixture()
	pair.Results = append(pair.Results, extra)
	swapped := fixture()
	swapped.Results = []Result{extra, swapped.Results[0]}
	if c := Compare(pair, swapped); !c.Pass() || c.Checked != 2*fixtureLeaves+1 { // extra also sets cores
		t.Errorf("reordered results differ:\n%s", c)
	}
}

func TestCompareExperimentMismatch(t *testing.T) {
	cand := fixture()
	cand.Experiment = "fig8"
	if c := Compare(fixture(), cand); c.Pass() {
		t.Fatal("experiment mismatch passed")
	}
}
