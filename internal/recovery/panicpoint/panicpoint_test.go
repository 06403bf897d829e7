// Package panicpoint_test checks that a crash campaign turns a panic
// inside recovery into a failed crash point, and that RunPoint fails a
// point exactly as the campaign does. It is a package of its own
// because the workload registry is process-global: the failing
// workloads registered here must not join the recovery package's
// every-workload campaigns.
package panicpoint_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
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

// failing is the hashtable whose durable check rejects every oracle of
// failKeys keys or more.
type failing struct{ *hashtable.Table }

const failKeys = 12

func (f failing) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if len(oracle) >= failKeys {
		return fmt.Errorf("refused at %d keys", len(oracle))
	}
	return f.Table.CheckDurable(img, oracle)
}

// opPanicky is the hashtable whose inserts panic in a crash point's
// run, standing in for a workload bug that only a crashed run reaches;
// the campaign's reference run, which sets no crash point, passes.
type opPanicky struct{ *hashtable.Table }

func (p opPanicky) Insert(sys *slpmt.System, key uint64, value []byte) error {
	if sys.Mach.Machine().CrashAfterTotal != 0 {
		panic("insert ran off the table")
	}
	return p.Table.Insert(sys, key, value)
}

func init() {
	workloads.Register("panicky-hashtable", func() workloads.Workload { return panicky{hashtable.New()} })
	workloads.Register("failing-hashtable", func() workloads.Workload { return failing{hashtable.New()} })
	workloads.Register("op-panicky-hashtable", func() workloads.Workload { return opPanicky{hashtable.New()} })
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

// TestCampaignParallelMatchesSerialOnFailure runs a campaign whose
// durable check fails and one whose operations panic in every crash
// point's run, serially and on four workers. Every sweep runs all of
// its points and folds them in point order, so both must return the
// same error and the same partial result; a panic must come back in
// the error (as a bench.PanicError per point), not end the process.
func TestCampaignParallelMatchesSerialOnFailure(t *testing.T) {
	for _, w := range []string{"failing-hashtable", "op-panicky-hashtable"} {
		cfg := recovery.CampaignConfig{Workload: w, Scheme: "SLPMT", N: 30, ValueSize: 32, Stride: 3, MaxPoints: 40}
		var results []recovery.CampaignResult
		var errs []string
		for _, workers := range []int{1, 4} {
			cfg.Parallel = workers
			res, err := recovery.RunCampaign(cfg)
			if err == nil || res == nil {
				t.Fatalf("%s, parallel=%d: result %v, error %v; want a failure and the totals before it", w, workers, res, err)
			}
			var pe *bench.PanicError
			panics := errors.As(err, &pe) && pe.Index == 0 && fmt.Sprint(pe.Value) == "insert ran off the table"
			if panics != (w == "op-panicky-hashtable") {
				t.Errorf("%s, parallel=%d: error %v carries the first point's panic: %v", w, workers, err, panics)
			}
			results = append(results, *res)
			errs = append(errs, err.Error())
		}
		if results[0] != results[1] || errs[0] != errs[1] {
			t.Errorf("%s: serial and parallel campaigns disagree:\n  serial:   %+v %s\n  parallel: %+v %s",
				w, results[0], errs[0], results[1], errs[1])
		}
		t.Logf("%s: %+v", w, results[0])
	}
}

// TestRunPointReportsCampaignError runs the point a stride-1 campaign
// fails at alone: RunPoint must return the campaign's error text, for
// an invalid durable state and for a recovery panic alike.
func TestRunPointReportsCampaignError(t *testing.T) {
	for _, w := range []string{"failing-hashtable", "panicky-hashtable"} {
		cfg := recovery.CampaignConfig{Workload: w, Scheme: "SLPMT", N: 30, ValueSize: 32, Stride: 1, Parallel: 1}
		_, want := recovery.RunCampaign(cfg)
		if want == nil {
			t.Fatalf("%s: campaign passed", w)
		}
		var point uint64
		if _, err := fmt.Sscanf(want.Error(), "crash point %d:", &point); err != nil {
			t.Fatalf("%s: campaign error %q names no crash point", w, want)
		}
		img, crashed, _, err := recovery.RunPoint(cfg, point)
		if img == nil || !crashed || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: RunPoint(%d): crashed=%v, %v\n  campaign: %v", w, point, crashed, err, want)
		}
		t.Log(want)
		if _, _, res, err := recovery.RunPoint(cfg, point-1); err != nil || res.PointsTested != 1 {
			t.Errorf("%s: point %d before the campaign's failure: %+v, %v", w, point-1, res, err)
		}
	}
}

// TestCampaignErrorText pins the failure text of two campaigns whose
// window holds a candidate of the wrong size for the image, which the
// verifier skips: the W=1 "before the op" candidate (one key short of
// the durable count) and the newest W=2 prefix (one key past it). Both
// report the size-matching candidate's error.
func TestCampaignErrorText(t *testing.T) {
	for _, tc := range []struct {
		window int
		stride uint64
		want   string
	}{
		{1, 1, "crash point 99: durable state matches no committed prefix in a window of 2 " +
			"(pending key 7285346741127956506): refused at 12 keys"},
		{2, 2, "crash point 65: durable state matches no committed prefix in a window of 3 " +
			"(pending key 2499333874296720844): refused at 12 keys"},
	} {
		cfg := recovery.CampaignConfig{Workload: "failing-hashtable", Scheme: "SLPMT", N: 40, ValueSize: 32,
			Stride: tc.stride, Parallel: 1, CommitWindow: tc.window}
		if _, err := recovery.RunCampaign(cfg); err == nil || err.Error() != tc.want {
			t.Errorf("W=%d: campaign error\n  %v\nwant\n  %s", tc.window, err, tc.want)
		}
	}
}
