package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Ablation quantifies the design choices DESIGN.md calls out:
//
//  1. tiered log-buffer coalescing (FG vs EDE isolates the buffer);
//  2. logging granularity (FG vs ATOM isolates word vs line records);
//  3. speculative log creation on L1 eviction (§III-B1);
//  4. lazy persistency with vs without deferral (FG+LZ vs FG);
//  5. undo vs redo ordering under identical annotations (Figure 4).
func Ablation(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	ws := workloads.Kernels()
	at := func(s, w string) bench.Result { return sw.at(cell(base, s, w)) }

	// 1+2: buffer and granularity.
	if err := sw.grid([]string{schemes.FG, schemes.ATOM, schemes.EDE}, ws, base); err != nil {
		return nil, err
	}
	tb := bench.NewTable(
		"Ablation: logging path (FG = word+tiered buffer; ATOM = line records; EDE = no buffer)",
		"workload", "FG/ATOM speedup", "FG/EDE speedup", "FG log KiB", "ATOM log KiB", "EDE log KiB")
	for _, w := range ws {
		fg, atom, ed := at(schemes.FG, w), at(schemes.ATOM, w), at(schemes.EDE, w)
		tb.AddRow(w,
			bench.Fx(bench.Speedup(atom, fg)),
			bench.Fx(bench.Speedup(ed, fg)),
			kib(fg.Counters.PMWriteBytesLog),
			kib(atom.Counters.PMWriteBytesLog),
			kib(ed.Counters.PMWriteBytesLog))
	}
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(paper: FG outperforms ATOM by 1.05x and EDE by 1.13x on the kernels)\n\n")

	// 3: speculative logging.
	if err := sw.grid([]string{schemes.SLPMT, schemes.SLPMTSpec}, ws, base); err != nil {
		return nil, err
	}
	ts := bench.NewTable(
		"Ablation: speculative log creation on L1 eviction (§III-B1)",
		"workload", "speedup vs SLPMT", "duplicate records off", "duplicate records on", "speculative records")
	for _, w := range ws {
		off, on := at(schemes.SLPMT, w), at(schemes.SLPMTSpec, w)
		ts.AddRow(w,
			bench.Fx(bench.Speedup(off, on)),
			fmt.Sprint(off.Counters.LogDuplicates),
			fmt.Sprint(on.Counters.LogDuplicates),
			fmt.Sprint(on.Counters.SpeculativeRecords))
	}
	fmt.Fprintln(out, ts)

	// 4: lazy persistency contribution.
	if err := sw.grid([]string{schemes.FG, schemes.FGLZ}, ws, base); err != nil {
		return nil, err
	}
	tl := bench.NewTable(
		"Ablation: lazy persistency alone (FG+LZ vs FG)",
		"workload", "speedup", "records discarded", "lazy lines deferred", "lazy lines elided")
	for _, w := range ws {
		b, r := at(schemes.FG, w), at(schemes.FGLZ, w)
		tl.AddRow(w,
			bench.Fx(bench.Speedup(b, r)),
			fmt.Sprint(r.Counters.LogRecordsDiscarded),
			fmt.Sprint(r.Counters.LazyLinesDeferred),
			fmt.Sprint(r.Counters.LazyLinesElided))
	}
	fmt.Fprintln(out, tl)

	// 5: undo vs redo ordering with the same annotations.
	if err := sw.grid([]string{schemes.SLPMT, schemes.SLPMTRedo, schemes.FG, schemes.FGRedo}, ws, base); err != nil {
		return nil, err
	}
	tr := bench.NewTable(
		"Ablation: undo vs redo logging (Figure 4 orderings)",
		"workload", "FG-redo vs FG", "SLPMT-redo vs SLPMT")
	for _, w := range ws {
		tr.AddRow(w,
			bench.Fx(bench.Speedup(at(schemes.FG, w), at(schemes.FGRedo, w))),
			bench.Fx(bench.Speedup(at(schemes.SLPMT, w), at(schemes.SLPMTRedo, w))))
	}
	fmt.Fprintln(out, tr)
	return sw.results, nil
}

func kib(b uint64) string { return fmt.Sprintf("%.0f", float64(b)/1024) }
