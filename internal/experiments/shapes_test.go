package experiments

import (
	"testing"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// TestPaperShapes pins the paper's qualitative claims as regression
// tests: any change to the simulator or engine that flips a comparison
// the paper reports fails here. Thresholds are deliberately loose — the
// claims are orderings and directions, not absolute numbers.
func TestPaperShapes(t *testing.T) {
	cfg := bench.RunConfig{N: 400, ValueSize: 256, Verify: true}
	ws := workloads.Kernels()
	ss := []string{schemes.FG, schemes.FGLG, schemes.FGLZ, schemes.SLPMT, schemes.ATOM, schemes.EDE}
	sw := sweep{Sweep: new(Sweep)}
	if err := sw.grid(ss, ws, cfg); err != nil {
		t.Fatal(err)
	}
	if err := verified(sw.results); err != nil {
		t.Fatal(err)
	}
	at := func(s, w string) bench.Result { return sw.at(cell(cfg, s, w)) }

	sp := func(s, w string) float64 { return bench.Speedup(at(schemes.FG, w), at(s, w)) }
	tr := func(s, w string) float64 { return bench.TrafficReduction(at(schemes.FG, w), at(s, w)) }

	for _, w := range ws {
		// §VI headline: SLPMT beats the baseline and both prior designs
		// on every benchmark.
		if sp(schemes.SLPMT, w) <= 1.05 {
			t.Errorf("%s: SLPMT speedup %.2f <= 1.05", w, sp(schemes.SLPMT, w))
		}
		if at(schemes.SLPMT, w).Cycles >= at(schemes.ATOM, w).Cycles {
			t.Errorf("%s: SLPMT not faster than ATOM", w)
		}
		if at(schemes.SLPMT, w).Cycles >= at(schemes.EDE, w).Cycles {
			t.Errorf("%s: SLPMT not faster than EDE", w)
		}
		// Fig. 8 right: SLPMT cuts traffic substantially; ATOM and EDE
		// increase it.
		if tr(schemes.SLPMT, w) < 0.15 {
			t.Errorf("%s: SLPMT traffic cut %.2f < 0.15", w, tr(schemes.SLPMT, w))
		}
		if tr(schemes.ATOM, w) > 0 {
			t.Errorf("%s: ATOM reduced traffic (%.2f), expected increase", w, tr(schemes.ATOM, w))
		}
		if tr(schemes.EDE, w) > 0 {
			t.Errorf("%s: EDE reduced traffic (%.2f), expected increase", w, tr(schemes.EDE, w))
		}
		// §VI-D1: selective logging cuts far more traffic than lazy
		// persistency.
		if tr(schemes.FGLG, w) <= tr(schemes.FGLZ, w) {
			t.Errorf("%s: log-free traffic cut %.2f <= lazy %.2f", w, tr(schemes.FGLG, w), tr(schemes.FGLZ, w))
		}
	}

	// Fig. 8: the hashtable is the lazy-persistency winner (its rehash
	// moves), and log-free + lazy combine on it.
	if sp(schemes.FGLZ, "hashtable") < 1.08 {
		t.Errorf("hashtable FG+LZ speedup %.2f < 1.08", sp(schemes.FGLZ, "hashtable"))
	}
	if sp(schemes.SLPMT, "hashtable") <= sp(schemes.FGLG, "hashtable") {
		t.Errorf("hashtable: SLPMT (%.2f) not above FG+LG (%.2f): features did not combine",
			sp(schemes.SLPMT, "hashtable"), sp(schemes.FGLG, "hashtable"))
	}
}

// TestFig12Shape: the hashtable's SLPMT speedup grows with PM write
// latency; the tree kernels stay roughly flat (within 10%).
func TestFig12Shape(t *testing.T) {
	speed := func(w string, lat uint64) float64 {
		cfg := bench.RunConfig{N: 300, ValueSize: 256, PMWriteNanos: lat}
		cfg.Workload = w
		cfg.Scheme = schemes.FG
		base := bench.Run(cfg)
		cfg.Scheme = schemes.SLPMT
		return bench.Speedup(base, bench.Run(cfg))
	}
	if lo, hi := speed("hashtable", 500), speed("hashtable", 2300); hi <= lo {
		t.Errorf("hashtable speedup not latency-sensitive: %.2f -> %.2f", lo, hi)
	}
	if lo, hi := speed("avl", 500), speed("avl", 2300); hi > lo*1.10 {
		t.Errorf("avl speedup too latency-sensitive: %.2f -> %.2f", lo, hi)
	}
}

// TestFig10Shape: speedup grows monotonically (within noise) with the
// value size on every kernel.
func TestFig10Shape(t *testing.T) {
	for _, w := range workloads.Kernels() {
		speed := func(v int) float64 {
			cfg := bench.RunConfig{N: 300, ValueSize: v}
			cfg.Workload = w
			cfg.Scheme = schemes.FG
			base := bench.Run(cfg)
			cfg.Scheme = schemes.SLPMT
			return bench.Speedup(base, bench.Run(cfg))
		}
		small, large := speed(16), speed(256)
		if large <= small {
			t.Errorf("%s: speedup did not grow with value size (%.2f -> %.2f)", w, small, large)
		}
	}
}

// TestFig14Shape: kv-ctree has the highest SLPMT-vs-prior speedup of
// the backends; the 16-byte gains are smaller than the 256-byte ones.
func TestFig14Shape(t *testing.T) {
	speed := func(w string, v int) float64 {
		cfg := bench.RunConfig{N: 300, ValueSize: v}
		cfg.Workload = w
		cfg.Scheme = schemes.EDE
		base := bench.Run(cfg)
		cfg.Scheme = schemes.SLPMT
		return bench.Speedup(base, bench.Run(cfg))
	}
	ct, rt := speed("kv-ctree", 256), speed("kv-rtree", 256)
	if ct < rt {
		t.Errorf("kv-ctree (%.2f) below kv-rtree (%.2f) vs EDE", ct, rt)
	}
	if s16 := speed("kv-ctree", 16); s16 >= ct {
		t.Errorf("kv-ctree 16B speedup (%.2f) not below 256B (%.2f)", s16, ct)
	}
}
