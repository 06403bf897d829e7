package recovery_test

import (
	"runtime"
	"testing"

	"github.com/persistmem/slpmt/internal/recovery"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// campaignShape is one of crash-1c's two campaign shapes, run serially
// over 240 ops with 64 B values and crashed every 25 persist events: a
// mixed insert/update/delete hashtable stream at W=1 and a kv-btree
// insert stream at W=16.
type campaignShape struct {
	name string
	cfg  recovery.CampaignConfig
	// maxAllocs bounds the host allocations per crash point of one
	// campaign (see TestCampaignAllocsPerPoint).
	maxAllocs float64
}

func campaignShapes() []campaignShape {
	shapes := []campaignShape{
		{"hashtable-w1", recovery.CampaignConfig{Workload: "hashtable", Mixed: true}, 16},
		{"kv-btree-w16", recovery.CampaignConfig{Workload: "kv-btree", CommitWindow: 16}, 11},
	}
	for i := range shapes {
		cfg := &shapes[i].cfg
		cfg.Scheme, cfg.N, cfg.ValueSize, cfg.Seed = "SLPMT", 240, 64, 1
		cfg.Stride, cfg.Parallel = 25, 1
	}
	return shapes
}

// campaignCost runs cfg's campaign n times and returns the crash points
// tested and the host allocations and bytes the runs made.
func campaignCost(tb testing.TB, cfg recovery.CampaignConfig, n int) (points int, allocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		res, err := recovery.RunCampaign(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		points += res.PointsTested
	}
	runtime.ReadMemStats(&m1)
	return points, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// TestCampaignAllocsPerPoint runs each of BenchmarkCampaign's campaigns
// once and bounds its host allocations per crash point, the campaign's
// reference and set-up runs included. A point's verification allocates
// next to nothing (TestVerifyPointAllocs); what is left is its run's
// workload instance and the run's own growth. The ceilings leave about
// 10% over the measured 14.6 and 9.7: the first campaign in a process
// also pays one-time costs, such as the memoized key stream and the
// first key sets, and the runtime's own allocations land in the count.
func TestCampaignAllocsPerPoint(t *testing.T) {
	for _, s := range campaignShapes() {
		points, allocs, _ := campaignCost(t, s.cfg, 1)
		got := float64(allocs) / float64(points)
		if got > s.maxAllocs {
			t.Errorf("%s: %.1f allocations per crash point, want at most %.0f", s.name, got, s.maxAllocs)
		}
		t.Logf("%s: %.1f allocations per crash point over %d points", s.name, got, points)
	}
}

// BenchmarkCampaign measures the host cost of one serial crash campaign
// of each campaignShape. Besides the per-campaign figures it reports
// the cost per crash point (ns/point, allocs/point, B/point), which
// includes the campaign's reference and set-up runs spread over its
// points.
func BenchmarkCampaign(b *testing.B) {
	for _, s := range campaignShapes() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			points, allocs, bytes := campaignCost(b, s.cfg, b.N)
			b.StopTimer()
			p := float64(points)
			b.ReportMetric(p/float64(b.N), "points")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/p, "ns/point")
			b.ReportMetric(float64(allocs)/p, "allocs/point")
			b.ReportMetric(float64(bytes)/p, "B/point")
		})
	}
}
