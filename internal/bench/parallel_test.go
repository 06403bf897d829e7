package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// withParallelism runs fn with the pool pinned to n workers, restoring
// the default afterwards.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	SetParallelism(n)
	defer SetParallelism(0)
	fn()
}

func TestSetParallelism(t *testing.T) {
	SetParallelism(3)
	defer SetParallelism(0)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("default Parallelism() = %d, want >= 1", got)
	}
}

func TestForEachRunsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		withParallelism(t, workers, func() {
			var hits [37]atomic.Int32
			if err := ForEach(len(hits), func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
				}
			}
		})
	}
}

func TestForEachConvertsPanicsToErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withParallelism(t, workers, func() {
			err := ForEach(5, func(i int) error {
				if i == 3 {
					panic("cell exploded")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
			}
			if pe.Index != 3 || pe.Value != "cell exploded" || len(pe.Stack) == 0 {
				t.Errorf("workers=%d: bad PanicError: %+v", workers, pe)
			}
		})
	}
}

// TestForEachFindsPanicAmongFailures: with several jobs failing, the
// joined error still yields the first panic to errors.As.
func TestForEachFindsPanicAmongFailures(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withParallelism(t, workers, func() {
			err := ForEach(6, func(i int) error {
				switch i {
				case 1:
					return fmt.Errorf("job-1-failed")
				case 2, 4:
					panic(fmt.Sprintf("cell %d exploded", i))
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Index != 2 || pe.Value != "cell 2 exploded" {
				t.Fatalf("workers=%d: err = %v, want job 2's *PanicError", workers, err)
			}
			if want := "job-1-failed\njob 2 panicked: cell 2 exploded\njob 4 panicked: cell 4 exploded"; err.Error() != want {
				t.Errorf("workers=%d: err = %q, want %q", workers, err, want)
			}
		})
	}
}

func TestForEachAggregatesErrorsInJobOrder(t *testing.T) {
	withParallelism(t, 4, func() {
		err := ForEach(6, func(i int) error {
			if i%2 == 1 {
				return fmt.Errorf("job-%d-failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected error")
		}
		msg := err.Error()
		// Failures from jobs 1, 3, 5 must appear in job order regardless
		// of which worker hit them first.
		i1 := strings.Index(msg, "job-1-failed")
		i3 := strings.Index(msg, "job-3-failed")
		i5 := strings.Index(msg, "job-5-failed")
		if i1 < 0 || i3 < i1 || i5 < i3 {
			t.Errorf("errors out of job order: %q", msg)
		}
	})
}

func TestForEachWorkersExplicitCount(t *testing.T) {
	var running, peak atomic.Int32
	err := ForEachWorkers(16, 2, func(i int) error {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		running.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d with 2 workers", p)
	}
}

// TestGridParallelMatchesSerial asserts the tentpole property: the
// fig8-style grid produces byte-identical Result values at any worker
// count. Counters is a flat struct of uint64s, so Results (with nil
// VerifyErr) compare with ==.
func TestGridParallelMatchesSerial(t *testing.T) {
	var cfgs []RunConfig
	for _, s := range schemes.Evaluated() {
		for _, w := range workloads.Kernels() {
			cfgs = append(cfgs, RunConfig{Scheme: s, Workload: w, N: 60, ValueSize: 32, Verify: true})
		}
	}

	var serial, parallel []Result
	var serialErr, parallelErr error
	withParallelism(t, 1, func() { serial, serialErr = RunAll(cfgs) })
	withParallelism(t, 8, func() { parallel, parallelErr = RunAll(cfgs) })
	if serialErr != nil || parallelErr != nil {
		t.Fatalf("serial: %v, parallel: %v", serialErr, parallelErr)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("cell count %d vs %d", len(serial), len(parallel))
	}
	for i, a := range serial {
		b := parallel[i]
		if a.VerifyErr != nil || b.VerifyErr != nil {
			t.Fatalf("%s/%s verify: serial=%v parallel=%v", a.Scheme, a.Workload, a.VerifyErr, b.VerifyErr)
		}
		if a != b {
			t.Errorf("%s/%s: serial and parallel results differ:\n  serial:   %+v\n  parallel: %+v", a.Scheme, a.Workload, a, b)
		}
	}
}

func TestRunAllMatchesSerialRuns(t *testing.T) {
	cfgs := []RunConfig{
		{Scheme: schemes.FG, Workload: "hashtable", N: 50, ValueSize: 16},
		{Scheme: schemes.SLPMT, Workload: "rbtree", N: 50, ValueSize: 16},
		{Scheme: schemes.ATOM, Workload: "heap", N: 50, ValueSize: 16},
	}
	var want []Result
	for _, cfg := range cfgs {
		want = append(want, Run(cfg))
	}
	withParallelism(t, 4, func() {
		got, err := RunAll(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if got[i] != want[i] {
				t.Errorf("cfg %d: parallel %+v != serial %+v", i, got[i], want[i])
			}
		}
	})
}

func TestRunAllReportsPanickingRun(t *testing.T) {
	cfgs := []RunConfig{
		{Scheme: schemes.FG, Workload: "hashtable", N: 20, ValueSize: 16},
		{Scheme: "no-such-scheme", Workload: "hashtable", N: 20, ValueSize: 16},
	}
	withParallelism(t, 2, func() {
		res, err := RunAll(cfgs)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 1 {
			t.Fatalf("err = %v, want *PanicError for job 1", err)
		}
		if res[0].Cycles == 0 {
			t.Error("healthy run missing from results")
		}
	})
}
