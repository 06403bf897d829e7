package bench

import (
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// TestRunMixesVerify runs every workload × YCSB mix pair, small, with
// Verify on: each run's structure must end equal to the mix's final
// oracle. A ycsb-e run on a structure without Scan fails as an error
// naming the unsupported operation, not as a panic inside Apply.
func TestRunMixesVerify(t *testing.T) {
	var cfgs []RunConfig
	for _, w := range workloads.Names() {
		for _, m := range []ycsb.Mix{ycsb.WorkloadA(), ycsb.WorkloadB(), ycsb.WorkloadC(), ycsb.WorkloadE()} {
			m.Records = 40
			cfgs = append(cfgs, RunConfig{Scheme: "SLPMT", Workload: w, Mix: m, N: 40, ValueSize: 16, Verify: true})
		}
	}
	ran := 0
	for _, cfg := range cfgs {
		_, scans := workloads.MustNew(cfg.Workload).(workloads.Ranger)
		res, err := RunAll([]RunConfig{cfg})
		switch {
		case cfg.Mix.ScanPct > 0 && !scans:
			if err == nil || !strings.Contains(err.Error(), workloads.ErrUnsupported.Error()) {
				t.Errorf("%s/%s: error %v, want %v", cfg.Workload, cfg.Mix.Name, err, workloads.ErrUnsupported)
			}
		case err != nil:
			t.Errorf("%s/%s: %v", cfg.Workload, cfg.Mix.Name, err)
		case res[0].VerifyErr != nil:
			t.Errorf("%s/%s: %v", cfg.Workload, cfg.Mix.Name, res[0].VerifyErr)
		default:
			ran++
		}
	}
	if ran < 29 {
		t.Errorf("%d workload × mix pairs verified, want 29", ran)
	}
}

// TestValidateMixCores: a mix runs on one core, so Validate rejects one
// on more, naming the flag.
func TestValidateMixCores(t *testing.T) {
	cfg := RunConfig{Workload: "kv-btree", Mix: ycsb.WorkloadA()}
	for _, cores := range []int{0, 1} {
		cfg.Cores = cores
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d cores: %v", cores, err)
		}
	}
	cfg.Cores = 2
	if err := cfg.Validate(); err == nil || !strings.HasPrefix(err.Error(), "-cores 2: ") {
		t.Errorf("2 cores: error %v, want a -cores flag error", err)
	}
}
