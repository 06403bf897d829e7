package recovery_test

import (
	"testing"

	"github.com/persistmem/slpmt/internal/recovery"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// BenchmarkCampaign measures the host cost of one serial crash
// campaign: a mixed insert/update/delete hashtable stream of 240 ops,
// crashed every 25 persist events.
func BenchmarkCampaign(b *testing.B) {
	cfg := recovery.CampaignConfig{
		Workload:  "hashtable",
		Scheme:    "SLPMT",
		N:         240,
		ValueSize: 64,
		Seed:      1,
		Mixed:     true,
		Stride:    25,
		Parallel:  1,
	}
	b.ReportAllocs()
	var points int
	for i := 0; i < b.N; i++ {
		res, err := recovery.RunCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		points = res.PointsTested
	}
	b.ReportMetric(float64(points), "points")
}
