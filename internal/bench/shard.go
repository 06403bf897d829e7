package bench

import "github.com/persistmem/slpmt"

// Shard runs operations 0..n-1 on cl under its deterministic
// interleaver, operation i on core i%cores: every core works through an
// equal round-robin slice of one stream. op runs operation i on sys.
// Shard stops at the first error op returns and returns it; no further
// operation starts on any core. It allocates nothing.
func Shard(cl *slpmt.Cluster, n int, op func(sys *slpmt.System, i int) error) error {
	cores := len(cl.Sys)
	var next [slpmt.MaxCores]int
	for c := 0; c < cores; c++ {
		next[c] = c
	}
	var err error
	cl.Interleave(func(core int, sys *slpmt.System) bool {
		j := next[core]
		if j >= n || err != nil {
			return false
		}
		next[core] = j + cores
		if err = op(sys, j); err != nil {
			return false
		}
		return next[core] < n
	})
	return err
}
