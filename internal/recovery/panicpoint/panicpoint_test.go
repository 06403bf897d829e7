// Package panicpoint_test checks that a crash campaign turns a panic
// inside recovery into a failed crash point. It is a package of its own
// because the workload registry is process-global: the panicking
// workload registered here must not join the recovery package's
// every-workload campaigns.
package panicpoint_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/workloads/hashtable"
)

// panicky is the hashtable whose durable check panics once the oracle
// holds panicKeys keys, standing in for a structure walk that follows
// a garbage pointer out of the image.
type panicky struct{ *hashtable.Table }

const panicKeys = 10

func (p panicky) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if len(oracle) >= panicKeys {
		panic(fmt.Sprintf("walk ran off the image at %d keys", len(oracle)))
	}
	return p.Table.CheckDurable(img, oracle)
}

func init() {
	workloads.Register("panicky-hashtable", func() workloads.Workload { return panicky{hashtable.New()} })
}

// TestCampaignReportsRecoveryPanic runs the same campaign serially and
// on two workers: both must fail at the same crash point with the
// recovered panic, not crash the process or name a job index.
func TestCampaignReportsRecoveryPanic(t *testing.T) {
	cfg := recovery.CampaignConfig{
		Workload:  "panicky-hashtable",
		Scheme:    "SLPMT",
		N:         30,
		ValueSize: 32,
		Stride:    7,
	}
	var errs []string
	for _, workers := range []int{1, 2} {
		cfg.Parallel = workers
		_, err := recovery.RunCampaign(cfg)
		if err == nil {
			t.Fatalf("parallel=%d: campaign passed; want the recovery panic reported", workers)
		}
		if !strings.Contains(err.Error(), "recovery panicked: walk ran off the image") {
			t.Fatalf("parallel=%d: error %q does not report the recovery panic", workers, err)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("serial and parallel campaigns disagree:\n  serial:   %s\n  parallel: %s", errs[0], errs[1])
	}
	t.Log(errs[0])
}
