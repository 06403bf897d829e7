package recovery

import (
	"fmt"
	"testing"
)

// TestCampaignParallelReuseMatchesFreshPoints: a parallel sweep, whose
// workers each run their points on one reused platform, and a serial
// sweep, which runs every point on one, both add up to what the same
// points give on a new platform each. It runs under the race detector
// (make race), which sees any platform two workers share.
func TestCampaignParallelReuseMatchesFreshPoints(t *testing.T) {
	for _, cfg := range []CampaignConfig{
		{Workload: "hashtable", Scheme: "SLPMT", N: 24, ValueSize: 32, Mixed: true, Stride: 3},
		{Workload: "kv-btree", Scheme: "SLPMT", N: 24, ValueSize: 32, Cores: 2, Sockets: 2, CommitWindow: 16, Stride: 3},
		{Workload: "hashtable", Scheme: "FG-redo", N: 24, ValueSize: 32, CommitWindow: 4, Stride: 3},
	} {
		name := fmt.Sprintf("%s-%s-%dc-w%d", cfg.Workload, cfg.Scheme, max(cfg.Cores, 1), max(cfg.CommitWindow, 1))
		t.Run(name, func(t *testing.T) {
			ops := genOps(cfg)
			_, total, err := new(verifier).execute(cfg, ops, 0)
			if err != nil {
				t.Fatal(err)
			}
			setup, err := new(verifier).setupPersists(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := CampaignResult{TotalPersistEvents: total}
			for p := setup + cfg.Stride; p <= total; p += cfg.Stride {
				out := testPoint(new(verifier), cfg, ops, p)
				if out.err != nil {
					t.Fatal(out.err)
				}
				if !out.crashed {
					break
				}
				want.accumulate(&out)
			}
			if want.PointsTested < 10 {
				t.Fatalf("only %d points tested", want.PointsTested)
			}
			for _, workers := range []int{1, 2, 3} {
				c := cfg
				c.Parallel = workers
				got, err := RunCampaign(c)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				if *got != want {
					t.Errorf("%d workers: %+v, fresh points add up to %+v", workers, *got, want)
				}
			}
		})
	}
}
