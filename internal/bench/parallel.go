package bench

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The experiment grids are embarrassingly parallel: every cell owns a
// fully independent, deterministic machine.Machine, so fanning cells
// across goroutines changes wall-clock time and nothing else. The
// worker pool here preserves result identity exactly — same seeds, same
// per-cell machines, results keyed and ordered as the serial loops
// produced them — and converts worker panics into errors so one broken
// cell cannot take down a whole sweep.

// parallelism is the configured worker count; 0 means GOMAXPROCS.
var parallelism atomic.Int64

// SetParallelism sets the worker count used by RunAll, Grid and
// ForEach (and therefore every figure grid). n <= 0 restores the
// default, GOMAXPROCS.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the effective worker count.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a worker panic converted into an error by ForEach.
type PanicError struct {
	// Index is the job index whose function panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job %d panicked: %v", e.Index, e.Value)
}

// ForEach runs fn(i) for every i in [0, n) on Parallelism() workers,
// returning after all jobs finish. Panics are recovered as *PanicError
// values and joined (errors.Join, in job order) into the returned
// error with the errors fn returns, so errors.As finds a panic however
// many jobs failed. With one worker the jobs run sequentially in index
// order on the calling goroutine — the serial loops the figures used to
// hand-roll.
func ForEach(n int, fn func(i int) error) error {
	return ForEachWorkers(n, Parallelism(), fn)
}

// ForEachWorkers is ForEach with an explicit worker count (<= 0 means
// Parallelism()), for callers carrying their own parallelism knob.
func ForEachWorkers(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = Parallelism()
	}
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return nil
	}
	if workers <= 1 {
		var errs []error
		for i := 0; i < n; i++ {
			if err := protect(i, fn); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	jobs := make(chan int)
	jobErrs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//slpmt:determinism-ok: each job runs an isolated simulation; errors land in jobErrs[i] and are joined in job order
		go func() {
			defer wg.Done()
			for i := range jobs {
				jobErrs[i] = protect(i, fn)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return errors.Join(jobErrs...)
}

// protect invokes fn(i), converting a panic into a *PanicError.
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// RunAll executes every config on the worker pool, returning results in
// input order. A panicking run (bad scheme name, failed setup, broken
// cycle conservation) is reported in the error; its Result slot is left
// zero.
func RunAll(cfgs []RunConfig) ([]Result, error) {
	out := make([]Result, len(cfgs))
	err := ForEach(len(cfgs), func(i int) error {
		out[i] = Run(cfgs[i])
		return nil
	})
	return out, err
}

// Grid runs the cartesian product of schemes × workloads over base's
// other fields on the worker pool, returning the results in
// scheme-major order: workload wi of scheme si is at
// si*len(workloadNames)+wi. Errors are RunAll's.
func Grid(schemeNames, workloadNames []string, base RunConfig) ([]Result, error) {
	cfgs := make([]RunConfig, 0, len(schemeNames)*len(workloadNames))
	for _, s := range schemeNames {
		for _, w := range workloadNames {
			cfg := base
			cfg.Scheme, cfg.Workload = s, w
			cfgs = append(cfgs, cfg)
		}
	}
	return RunAll(cfgs)
}
