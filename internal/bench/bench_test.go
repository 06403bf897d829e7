package bench

import (
	"strings"
	"testing"

	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

func TestRunProducesVerifiedResult(t *testing.T) {
	r := Run(RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 100, ValueSize: 32, Verify: true})
	if r.VerifyErr != nil {
		t.Fatalf("verify: %v", r.VerifyErr)
	}
	if r.Cycles == 0 || r.PMWriteBytes() == 0 {
		t.Error("empty measurement")
	}
	if r.Counters.TxCommits < 100 {
		t.Errorf("commits = %d", r.Counters.TxCommits)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := RunConfig{Scheme: "FG", Workload: "rbtree", N: 60, ValueSize: 16}
	a := Run(cfg)
	b := Run(cfg)
	if a.Cycles != b.Cycles || a.PMWriteBytes() != b.PMWriteBytes() {
		t.Errorf("nondeterministic: %d/%d vs %d/%d", a.Cycles, a.PMWriteBytes(), b.Cycles, b.PMWriteBytes())
	}
}

func TestMetricsMath(t *testing.T) {
	base := Result{Cycles: 200}
	base.Counters.PMWriteBytesData = 1000
	r := Result{Cycles: 100}
	r.Counters.PMWriteBytesData = 600
	if Speedup(base, r) != 2.0 {
		t.Error("speedup math wrong")
	}
	if tr := TrafficReduction(base, r); tr < 0.399 || tr > 0.401 {
		t.Errorf("traffic reduction = %v", tr)
	}
	if g := GeoMean([]float64{1, 4}); g != 2 {
		t.Errorf("geomean = %v", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("geomean of empty should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "a", "bb")
	tb.AddRow("x", "y")
	out := tb.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "bb") || !strings.Contains(out, "y") {
		t.Errorf("render: %q", out)
	}
	if Fx(1.5) != "1.50x" || Pct(0.355) != "35.5%" || F(2.0) != "2.00" {
		t.Error("formatters broken")
	}
}
