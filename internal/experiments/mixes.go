package experiments

import (
	"fmt"
	"io"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/schemes"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// mixesIgnores names -n when it is off ycsb.DefaultOps, then the
// platform flags: every mix runs its own operation count on one core.
func mixesIgnores(base bench.RunConfig) []string {
	out := platformFlags(base)
	if base.N != 0 && base.N != ycsb.DefaultOps {
		out = append([]string{fmt.Sprintf("-n %d", base.N)}, out...)
	}
	return out
}

// Mixes runs the standard YCSB operation blends (A/B/C/E) over the
// kv-btree — an extension beyond the paper's insert-only load phase,
// showing where selective logging's benefit goes as reads and scans
// take over (there is simply less persistence to optimize). Every mix
// runs ycsb.DefaultOps operations on one core; of base it takes only
// the value size, seed, Verify and Profile (see mixesIgnores).
func Mixes(out io.Writer, sw *sweep, base bench.RunConfig) ([]bench.Result, error) {
	mixes := []ycsb.Mix{ycsb.WorkloadA(), ycsb.WorkloadB(), ycsb.WorkloadC(), ycsb.WorkloadE()}
	ss := []string{schemes.FG, schemes.SLPMT, schemes.ATOM, schemes.EDE}
	tb := bench.NewTable(
		"YCSB mixes on kv-btree: cycles/op by scheme (SLPMT speedup over FG in parens)",
		append([]string{"mix"}, ss...)...)
	cfgs := make([]bench.RunConfig, 0, len(mixes)*len(ss))
	for _, mix := range mixes {
		for _, s := range ss {
			cfgs = append(cfgs, bench.RunConfig{Scheme: s, Workload: "kv-btree", Mix: mix, N: ycsb.DefaultOps,
				ValueSize: base.ValueSize, Seed: base.Seed, Verify: base.Verify, Profile: base.Profile})
		}
	}
	results, err := sw.run(cfgs)
	if err != nil {
		return nil, err
	}
	for mi, mix := range mixes {
		rs := results[mi*len(ss) : (mi+1)*len(ss)] // rs[0] is FG's
		row := []string{mix.Name}
		for _, r := range rs {
			c := fmt.Sprintf("%d", r.Cycles/ycsb.DefaultOps)
			if r.Scheme == schemes.SLPMT {
				c += fmt.Sprintf(" (%.2fx)", bench.Speedup(rs[0], r))
			}
			row = append(row, c)
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(out, tb)
	fmt.Fprintf(out, "(update-heavy mixes retain the paper's gains; read/scan-dominated mixes converge —\n"+
		" selective logging only helps where transactions write)\n")
	return sw.results, nil
}
