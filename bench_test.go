package slpmt_test

// One testing.B benchmark per paper figure/table. Each benchmark runs
// the corresponding experiment grid once per iteration and reports the
// paper's headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every evaluation result. Iteration counts are naturally 1
// (the simulations are deterministic); the interesting output is the
// custom metrics (speedup-x, traffic-cut-%), not ns/op.

import (
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// benchCfg is the paper's workload configuration (1000 ops, 256 B).
func benchCfg() bench.RunConfig { return bench.RunConfig{N: 1000, ValueSize: 256} }

// speedupOver runs scheme and base on workload w, reporting base/scheme.
func speedupOver(b *testing.B, baseScheme, scheme, w string, cfg bench.RunConfig) float64 {
	b.Helper()
	cfgB := cfg
	cfgB.Scheme = baseScheme
	cfgB.Workload = w
	base := bench.Run(cfgB)
	cfgS := cfg
	cfgS.Scheme = scheme
	cfgS.Workload = w
	r := bench.Run(cfgS)
	if r.VerifyErr != nil || base.VerifyErr != nil {
		b.Fatalf("verification failed: %v / %v", base.VerifyErr, r.VerifyErr)
	}
	return bench.Speedup(base, r)
}

// BenchmarkFig8Kernels reproduces Figure 8: SLPMT speedup over the FG
// baseline on the four kernel benchmarks (geometric mean as the metric).
func BenchmarkFig8Kernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		cfg := benchCfg()
		cfg.Verify = true
		for _, w := range workloads.Kernels() {
			sp = append(sp, speedupOver(b, schemes.FG, schemes.SLPMT, w, cfg))
		}
		b.ReportMetric(bench.GeoMean(sp), "speedup-x")
	}
}

// BenchmarkFig8VsPrior reproduces the Figure 8 cross-design comparison:
// SLPMT over ATOM and EDE.
func BenchmarkFig8VsPrior(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var vsAtom, vsEde []float64
		for _, w := range workloads.Kernels() {
			vsAtom = append(vsAtom, speedupOver(b, schemes.ATOM, schemes.SLPMT, w, benchCfg()))
			vsEde = append(vsEde, speedupOver(b, schemes.EDE, schemes.SLPMT, w, benchCfg()))
		}
		b.ReportMetric(bench.GeoMean(vsAtom), "vs-ATOM-x")
		b.ReportMetric(bench.GeoMean(vsEde), "vs-EDE-x")
	}
}

// BenchmarkFig8Traffic reproduces Figure 8 (right): PM write-traffic
// reduction of SLPMT over FG.
func BenchmarkFig8Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var red float64
		for _, w := range workloads.Kernels() {
			cfg := benchCfg()
			cfg.Workload = w
			cfg.Scheme = schemes.FG
			base := bench.Run(cfg)
			cfg.Scheme = schemes.SLPMT
			r := bench.Run(cfg)
			red += bench.TrafficReduction(base, r)
		}
		b.ReportMetric(100*red/float64(len(workloads.Kernels())), "traffic-cut-%")
	}
}

// BenchmarkFig9LineGranularity reproduces Figure 9: SLPMT restricted to
// cache-line-granularity logging versus the line-granularity baseline.
func BenchmarkFig9LineGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, w := range workloads.Kernels() {
			sp = append(sp, speedupOver(b, schemes.ATOM, schemes.SLPMTCL, w, benchCfg()))
		}
		b.ReportMetric(bench.GeoMean(sp), "speedup-x")
	}
}

// BenchmarkFig10SmallValues reproduces the Figure 10 endpoint: SLPMT
// speedup at the smallest (16-byte) value size.
func BenchmarkFig10SmallValues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		cfg := benchCfg()
		cfg.ValueSize = 16
		for _, w := range workloads.Kernels() {
			sp = append(sp, speedupOver(b, schemes.FG, schemes.SLPMT, w, cfg))
		}
		b.ReportMetric(bench.GeoMean(sp), "speedup-x-16B")
	}
}

// BenchmarkFig11TrafficVsValueSize reproduces Figure 11's headline:
// bytes saved grow with the value size (reported at 256 B).
func BenchmarkFig11TrafficVsValueSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var saved float64
		for _, w := range workloads.Kernels() {
			cfg := benchCfg()
			cfg.Workload = w
			cfg.Scheme = schemes.FG
			base := bench.Run(cfg)
			cfg.Scheme = schemes.SLPMT
			r := bench.Run(cfg)
			saved += float64(base.PMWriteBytes()) - float64(r.PMWriteBytes())
		}
		b.ReportMetric(saved/1024/float64(len(workloads.Kernels())), "KiB-saved")
	}
}

// BenchmarkFig12WriteLatency reproduces Figure 12's most sensitive
// point: the hashtable's SLPMT speedup at a 2300 ns PM write latency
// (CXL-class byte-addressable storage).
func BenchmarkFig12WriteLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.PMWriteNanos = 2300
		b.ReportMetric(speedupOver(b, schemes.FG, schemes.SLPMT, "hashtable", cfg), "speedup-x-2300ns")
	}
}

// BenchmarkFig14PMKV reproduces Figure 14: SLPMT speedup over ATOM and
// EDE on the key-value store backends at 256-byte values.
func BenchmarkFig14PMKV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var vsAtom, vsEde []float64
		for _, w := range workloads.PMKV() {
			vsAtom = append(vsAtom, speedupOver(b, schemes.ATOM, schemes.SLPMT, w, benchCfg()))
			vsEde = append(vsEde, speedupOver(b, schemes.EDE, schemes.SLPMT, w, benchCfg()))
		}
		b.ReportMetric(bench.GeoMean(vsAtom), "vs-ATOM-x")
		b.ReportMetric(bench.GeoMean(vsEde), "vs-EDE-x")
	}
}

// BenchmarkHeadline reproduces the abstract's number: SLPMT vs prior
// hardware persistent-memory transactions across all six benchmarks.
func BenchmarkHeadline(b *testing.B) {
	all := append(append([]string{}, workloads.Kernels()...), workloads.PMKV()...)
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, w := range all {
			sp = append(sp,
				speedupOver(b, schemes.ATOM, schemes.SLPMT, w, benchCfg()),
				speedupOver(b, schemes.EDE, schemes.SLPMT, w, benchCfg()))
		}
		b.ReportMetric(bench.GeoMean(sp), "speedup-x")
	}
}

// BenchmarkAblationSpeculative measures the §III-B1 speculative-logging
// option against stock SLPMT.
func BenchmarkAblationSpeculative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, w := range workloads.Kernels() {
			sp = append(sp, speedupOver(b, schemes.SLPMT, schemes.SLPMTSpec, w, benchCfg()))
		}
		b.ReportMetric(bench.GeoMean(sp), "spec-vs-slpmt-x")
	}
}

// BenchmarkAblationRedo measures the Figure 4 redo ordering against
// undo under identical annotations.
func BenchmarkAblationRedo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sp []float64
		for _, w := range workloads.Kernels() {
			sp = append(sp, speedupOver(b, schemes.SLPMT, schemes.SLPMTRedo, w, benchCfg()))
		}
		b.ReportMetric(bench.GeoMean(sp), "redo-vs-undo-x")
	}
}

// BenchmarkSimulatorThroughput reports the simulator's own speed:
// simulated cycles per wall-clock second for the FG hashtable run (a
// plain performance benchmark of this library, not a paper figure).
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchCfg()
	cfg.Scheme = schemes.FG
	cfg.Workload = "hashtable"
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles += bench.Run(cfg).Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Msimcycles/s")
}

// BenchmarkUpdate measures the host cost of one small durable
// transaction on a single-core SLPMT System: a logged store and a
// log-free store to a preallocated node.
func BenchmarkUpdate(b *testing.B) {
	sys := slpmt.New(slpmt.Options{Scheme: schemes.SLPMT})
	var node slpmt.Addr
	if err := sys.Update(func(tx *slpmt.Tx) error {
		node = tx.Alloc(64)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	update := func(tx *slpmt.Tx) error {
		tx.StoreU64(node, tx.LoadU64(node)+1)
		tx.StoreTU64(node+8, 7, slpmt.LogFree)
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Update(update); err != nil {
			b.Fatal(err)
		}
	}
}

// sinkCluster keeps BenchmarkNewCluster's result live.
var sinkCluster *slpmt.Cluster

// BenchmarkNewCluster measures building a platform: the machine, one
// engine and heap handle per core, and the coherence and epoch wiring.
// Every harness builds one platform per experiment cell, so this is a
// per-cell host cost.
func BenchmarkNewCluster(b *testing.B) {
	for _, tc := range []struct {
		name           string
		cores, sockets int
	}{{"1c", 1, 1}, {"4c", 4, 1}, {"4c2s", 4, 2}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := slpmt.Options{Scheme: schemes.SLPMT, Sockets: tc.sockets}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCluster = slpmt.NewCluster(tc.cores, opts)
			}
		})
	}
}
