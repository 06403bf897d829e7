package recovery_test

import (
	"runtime"
	"testing"

	"github.com/persistmem/slpmt/internal/recovery"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// BenchmarkCampaign measures the host cost of one serial crash
// campaign of 240 ops with 64 B values, crashed every 25 persist
// events, on crash-1c's two shapes: a mixed insert/update/delete
// hashtable stream at W=1 and a kv-btree insert stream at W=16. Besides
// the per-campaign figures it reports the cost per crash point
// (ns/point, allocs/point, B/point), which includes the campaign's
// reference and set-up runs spread over its points.
func BenchmarkCampaign(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  recovery.CampaignConfig
	}{
		{"hashtable-w1", recovery.CampaignConfig{Workload: "hashtable", Mixed: true}},
		{"kv-btree-w16", recovery.CampaignConfig{Workload: "kv-btree", CommitWindow: 16}},
	} {
		cfg := tc.cfg
		cfg.Scheme, cfg.N, cfg.ValueSize, cfg.Seed = "SLPMT", 240, 64, 1
		cfg.Stride, cfg.Parallel = 25, 1
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var points int
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				res, err := recovery.RunCampaign(cfg)
				if err != nil {
					b.Fatal(err)
				}
				points += res.PointsTested
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			p := float64(points)
			b.ReportMetric(p/float64(b.N), "points")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/p, "ns/point")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/p, "allocs/point")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/p, "B/point")
		})
	}
}
