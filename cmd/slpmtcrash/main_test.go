package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/workloads/hashtable"
)

// failing is the hashtable whose durable check rejects every oracle of
// failKeys keys or more, so its campaigns fail at a known size.
type failing struct{ *hashtable.Table }

const failKeys = 12

func (f failing) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if len(oracle) >= failKeys {
		return fmt.Errorf("refused at %d keys", len(oracle))
	}
	return f.Table.CheckDurable(img, oracle)
}

func init() {
	workloads.Register("failing-hashtable", func() workloads.Workload { return failing{hashtable.New()} })
}

// runCLI runs the command with args and returns its stdout, stderr and
// error.
func runCLI(args ...string) (string, string, error) {
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// TestPointReportsCampaignVerdict inspects the point a campaign fails
// at, and the one before it: -point with the campaign's flags must fail
// with the campaign's FAIL line, and pass where the campaign passed.
func TestPointReportsCampaignVerdict(t *testing.T) {
	flags := []string{"-workload", "failing-hashtable", "-n", "30", "-stride", "1", "-parallel", "1"}
	_, campaign, err := runCLI(flags...)
	if err != errFailed {
		t.Fatalf("campaign: %v, want it to fail", err)
	}
	var point uint64
	if _, err := fmt.Sscanf(campaign, "failing-hashtable FAIL: crash point %d:", &point); err != nil {
		t.Fatalf("campaign FAIL line %q names no crash point", campaign)
	}

	out, fail, err := runCLI(append(flags, "-point", fmt.Sprint(point))...)
	if err != errFailed || fail != campaign {
		t.Errorf("-point %d: %v, stderr %q; want the campaign's %q", point, err, fail, campaign)
	}
	if !strings.Contains(out, "hardware log (core 0)") || !strings.Contains(out, "old=") {
		t.Errorf("-point %d dump lacks the undo log:\n%s", point, out)
	}

	out, _, err = runCLI(append(flags, "-point", fmt.Sprint(point-1))...)
	if want := fmt.Sprintf("OK: crash point %d;", point-1); err != nil || !strings.Contains(out, want) {
		t.Errorf("-point %d: %v, stdout lacks %q:\n%s", point-1, err, want, out)
	}
}

// TestPointDumpLabelsRedoPayloads checks that redo records print their
// payloads as new values.
func TestPointDumpLabelsRedoPayloads(t *testing.T) {
	out, _, err := runCLI("-scheme", "SLPMT-redo", "-n", "30", "-point", "20")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mode=redo") || !strings.Contains(out, "new=") || strings.Contains(out, "old=") {
		t.Errorf("redo dump mislabels its payloads:\n%s", out)
	}
}

// TestPointRejections covers the points -point cannot inspect and its
// conflict with -all.
func TestPointRejections(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "30", "-point", "100000"}, "past the run's"},
		{[]string{"-n", "30", "-point", "1"}, "falls in set-up"},
		{[]string{"-all", "-point", "20"}, "does not combine with -all"},
		{[]string{"-mixed", "-cores", "2", "-point", "20"}, "not sharded across cores"},
	} {
		if _, _, err := runCLI(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestOutOfRangeFlags checks that numeric flags outside their range and
// unknown scheme or workload names fail as flag errors naming the flag,
// before any campaign runs. Unchecked, the names, -n, -value,
// -commit-window and -cores 100 panic inside the runs, and a negative
// -sockets silently runs one socket.
func TestOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-5"}, "-n -5: must not be negative"},
		{[]string{"-value", "-8"}, "-value -8: must not be negative"},
		{[]string{"-commit-window", "-2"}, "-commit-window -2: must not be negative"},
		{[]string{"-sockets", "-1"}, "-sockets -1: must not be negative"},
		{[]string{"-cores", "100"}, "-cores 100: must be 0..64"},
		{[]string{"-cores", "9", "-commit-window", "4"}, "-cores 9: group commit (commit window 4) supports at most 8 cores"},
		{[]string{"-all", "-n", "-5"}, "-n -5"},
		{[]string{"-n", "-5", "-point", "20"}, "-n -5"},
		{[]string{"-scheme", "nosuch"}, "-scheme nosuch: unknown scheme"},
		{[]string{"-workload", "nosuch"}, "-workload nosuch: unknown workload"},
	} {
		out, fail, err := runCLI(append([]string{"-workload", "hashtable"}, tc.args...)...)
		if err == nil || err == errFailed || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
		if out != "" || fail != "" {
			t.Errorf("%v: printed %q / %q before failing", tc.args, out, fail)
		}
	}
}
