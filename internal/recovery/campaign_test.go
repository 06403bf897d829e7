package recovery_test

import (
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/recovery"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// TestCampaignParallelMatchesSerial asserts the campaign's determinism
// contract: fanning crash points across workers yields the exact
// CampaignResult the serial sweep produces.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	base := recovery.CampaignConfig{
		Workload:  "hashtable",
		Scheme:    "SLPMT",
		N:         40,
		ValueSize: 32,
		Stride:    11,
	}

	serialCfg := base
	serialCfg.Parallel = 1
	serial, err := recovery.RunCampaign(serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if serial.PointsTested == 0 {
		t.Fatal("serial campaign tested no points")
	}

	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Parallel = workers
		par, err := recovery.RunCampaign(cfg)
		if err != nil {
			t.Fatalf("parallel(%d): %v", workers, err)
		}
		if *par != *serial {
			t.Errorf("parallel(%d) result differs:\n  serial:   %+v\n  parallel: %+v", workers, *serial, *par)
		}
	}
}

// TestCampaignMultiCore crashes a 2-core cluster at machine-wide
// persist points and verifies every recovered image: all per-core
// hardware logs must apply and the shared structure must reflect
// exactly the committed transactions (the in-flight one accepted
// either way).
func TestCampaignMultiCore(t *testing.T) {
	res, err := recovery.RunCampaign(recovery.CampaignConfig{
		Workload:  "hashtable",
		Scheme:    "SLPMT",
		N:         30,
		ValueSize: 32,
		Cores:     2,
		Stride:    17,
		MaxPoints: 24,
	})
	if err != nil {
		t.Fatalf("2-core campaign: %v", err)
	}
	if res.PointsTested == 0 {
		t.Fatal("2-core campaign tested no points")
	}
	t.Logf("2-core campaign: %+v", *res)
}

// TestCampaignMultiCoreRejectsMixed pins the documented restriction.
func TestCampaignMultiCoreRejectsMixed(t *testing.T) {
	_, err := recovery.RunCampaign(recovery.CampaignConfig{
		Workload: "hashtable", Scheme: "SLPMT", N: 10, ValueSize: 16,
		Cores: 2, Mixed: true,
	})
	if err == nil {
		t.Fatal("Mixed+Cores>1 must be rejected")
	}
}

// TestCampaignRejectsOutOfRangeShapes checks that RunCampaign and
// RunPoint return an error naming the offending flag, before anything
// runs, for each shape field outside its range. Unchecked, most of
// these panic inside the runs, and negative Cores or Sockets silently
// run one.
func TestCampaignRejectsOutOfRangeShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*recovery.CampaignConfig)
		want string
	}{
		{"negative N", func(c *recovery.CampaignConfig) { c.N = -5 }, "-n -5"},
		{"negative value", func(c *recovery.CampaignConfig) { c.ValueSize = -8 }, "-value -8"},
		{"negative window", func(c *recovery.CampaignConfig) { c.CommitWindow = -2 }, "-commit-window -2"},
		{"negative sockets", func(c *recovery.CampaignConfig) { c.Sockets = -1 }, "-sockets -1"},
		{"negative cores", func(c *recovery.CampaignConfig) { c.Cores = -2 }, "-cores -2"},
		{"too many cores", func(c *recovery.CampaignConfig) { c.Cores = 100 }, "-cores 100"},
		{"group past descriptor", func(c *recovery.CampaignConfig) { c.Cores, c.CommitWindow = 9, 4 }, "at most 8 cores"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := recovery.CampaignConfig{Workload: "hashtable", Scheme: "SLPMT", N: 10, ValueSize: 16}
			tc.mod(&cfg)
			if _, err := recovery.RunCampaign(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RunCampaign: error %v, want %q", err, tc.want)
			}
			if img, _, _, err := recovery.RunPoint(cfg, 50); img != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RunPoint: image %v, error %v, want %q", img != nil, err, tc.want)
			}
		})
	}
	// Zero keeps meaning the default, and eight cores still group.
	for _, cfg := range []recovery.CampaignConfig{
		{Workload: "hashtable", Scheme: "SLPMT"},
		{Workload: "hashtable", Scheme: "SLPMT", N: 10, ValueSize: 16, Cores: 8, CommitWindow: 4},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

// TestCampaignParallelMixed exercises the parallel path on the mixed
// (insert/update/delete) stream, where in-flight transactions are more
// varied.
func TestCampaignParallelMixed(t *testing.T) {
	base := recovery.CampaignConfig{
		Workload:  "dlist",
		Scheme:    "SLPMT",
		N:         30,
		ValueSize: 24,
		Mixed:     true,
		Stride:    13,
		MaxPoints: 12,
	}
	serialCfg := base
	serialCfg.Parallel = 1
	serial, err := recovery.RunCampaign(serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parCfg := base
	parCfg.Parallel = 4
	par, err := recovery.RunCampaign(parCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if *par != *serial {
		t.Errorf("mixed campaign differs:\n  serial:   %+v\n  parallel: %+v", *serial, *par)
	}
}
