package report

import (
	"strings"
	"testing"
)

// fixture builds a one-result report; mutate copies to model drift.
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
		}},
	}
}

func TestCompareIdentical(t *testing.T) {
	c := Compare(fixture(), fixture())
	if !c.Pass() {
		t.Fatalf("identical reports failed:\n%s", c)
	}
	if len(c.Drifted) != 0 || len(c.Notes) != 0 {
		t.Errorf("identical reports produced drift/notes:\n%s", c)
	}
	if c.Checked == 0 {
		t.Error("nothing was checked")
	}
	if !strings.HasPrefix(c.String(), "PASS headline") {
		t.Errorf("summary line wrong: %q", c.String())
	}
}

// An experiment that records no results must not pass its gate with
// zero metrics checked, on either side of the comparison.
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

func TestCompareToleratedDrift(t *testing.T) {
	cand := fixture()
	cand.Results[0].Cycles = 1_030_000                 // +3% < 5%
	cand.Results[0].CommitLatencyP99 = 2150            // +7.5% < 10%
	cand.Results[0].CyclesByCause["compute"] = 630_000 // +5% < 10%
	c := Compare(fixture(), cand)
	if !c.Pass() {
		t.Fatalf("in-tolerance drift failed:\n%s", c)
	}
	if len(c.Drifted) != 3 {
		t.Errorf("want 3 drift rows, got %d:\n%s", len(c.Drifted), c)
	}
}

func TestCompareRegression(t *testing.T) {
	cand := fixture()
	cand.Results[0].Cycles = 1_080_000 // +8% > 5%
	c := Compare(fixture(), cand)
	if c.Pass() {
		t.Fatalf("8%% cycles regression passed:\n%s", c)
	}
	if len(c.Failures) != 1 || !strings.Contains(c.Failures[0], "cycles") {
		t.Errorf("wrong failure set:\n%s", c)
	}
	if !strings.HasPrefix(c.String(), "FAIL headline") {
		t.Errorf("summary line wrong: %q", c.String())
	}
}

// TestCompareSymmetric pins that improvements past tolerance also fail:
// the committed baseline must be refreshed to describe the tree.
func TestCompareSymmetric(t *testing.T) {
	cand := fixture()
	cand.Results[0].Cycles = 900_000 // -10%
	if c := Compare(fixture(), cand); c.Pass() {
		t.Fatalf("10%% improvement passed without a baseline refresh:\n%s", c)
	}
}

func TestCompareExactMetrics(t *testing.T) {
	cand := fixture()
	cand.Results[0].TxCommits = 999 // off by one; tolerance is exact
	if c := Compare(fixture(), cand); c.Pass() {
		t.Fatalf("tx_commits drift passed:\n%s", c)
	}
}

func TestCompareCauseFloor(t *testing.T) {
	base := fixture()
	base.Results[0].CyclesByCause["commit.marker"] = 100
	cand := fixture()
	cand.Results[0].CyclesByCause["commit.marker"] = 300 // 3x, but tiny
	if c := Compare(base, cand); !c.Pass() {
		t.Fatalf("sub-floor cause drift failed:\n%s", c)
	}
	cand.Results[0].CyclesByCause["wpq.stall"] = 112_000 // +12% of 100k, above floor
	if c := Compare(base, cand); c.Pass() {
		t.Fatal("12% cause drift above the floor passed")
	}
}

func TestCompareMetricRemoved(t *testing.T) {
	cand := fixture()
	cand.Results[0].CommitLatencyP50 = 0 // omitempty: metric disappears
	c := Compare(fixture(), cand)
	if c.Pass() {
		t.Fatalf("removed metric passed:\n%s", c)
	}
	if !strings.Contains(strings.Join(c.Failures, "\n"), "commit_latency_p50 removed") {
		t.Errorf("removal not named:\n%s", c)
	}

	cand = fixture()
	delete(cand.Results[0].CyclesByCause, "wpq.stall")
	if c := Compare(fixture(), cand); c.Pass() {
		t.Fatal("removed cause passed")
	}
}

func TestCompareMetricAdded(t *testing.T) {
	cand := fixture()
	cand.Results[0].LazyDrainP50 = 50
	cand.Results[0].CyclesByCause["lazy.drain"] = 40_000
	c := Compare(fixture(), cand)
	if !c.Pass() {
		t.Fatalf("new metrics failed the gate:\n%s", c)
	}
	notes := strings.Join(c.Notes, "\n")
	if !strings.Contains(notes, "lazy_drain_p50") || !strings.Contains(notes, "cycles_by_cause.lazy.drain") {
		t.Errorf("new metrics not noted:\n%s", c)
	}
}

func TestCompareResultSetDrift(t *testing.T) {
	cand := fixture()
	cand.Results = nil
	c := Compare(fixture(), cand)
	if c.Pass() || !strings.Contains(strings.Join(c.Failures, "\n"), "missing from candidate") {
		t.Fatalf("missing result not failed:\n%s", c)
	}

	cand = fixture()
	extra := cand.Results[0]
	extra.Cores = 4
	cand.Results = append(cand.Results, extra)
	c = Compare(fixture(), cand)
	if !c.Pass() {
		t.Fatalf("extra result failed the gate:\n%s", c)
	}
	if !strings.Contains(strings.Join(c.Notes, "\n"), "absent from baseline") {
		t.Errorf("extra result not noted:\n%s", c)
	}
}

func TestCompareVerifyRegression(t *testing.T) {
	cand := fixture()
	cand.Results[0].VerifyOK = false
	c := Compare(fixture(), cand)
	if c.Pass() || !strings.Contains(strings.Join(c.Failures, "\n"), "verify_ok regressed") {
		t.Fatalf("verify regression not failed:\n%s", c)
	}
}

func TestCompareExperimentMismatch(t *testing.T) {
	cand := fixture()
	cand.Experiment = "fig8"
	if c := Compare(fixture(), cand); c.Pass() {
		t.Fatal("experiment mismatch passed")
	}
}
