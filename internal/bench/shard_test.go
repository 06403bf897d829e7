package bench

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/persistmem/slpmt"
)

// TestShard pins the round-robin contract every harness relies on: op i
// runs on core i%cores, the interleaver picks the unfinished core with
// the lowest clock (ties to the lower core ID), and the first error
// stops every core.
func TestShard(t *testing.T) {
	const n = 10
	errStop := errors.New("stop")
	for _, tc := range []struct {
		cores int
		// order is the run order when core c's operations each cost
		// (c+1)*10 cycles, so faster cores run ahead of slower ones.
		order []int
	}{
		{1, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{3, []int{0, 1, 2, 3, 6, 4, 9, 5, 7, 8}},
	} {
		t.Run(fmt.Sprintf("cores=%d", tc.cores), func(t *testing.T) {
			run := func(failAt int) ([]int, error) {
				cl := slpmt.NewCluster(tc.cores, slpmt.Options{Scheme: "SLPMT"})
				var order []int
				err := Shard(cl, n, func(sys *slpmt.System, i int) error {
					if core := sys.Mach.ID; core != i%tc.cores {
						t.Errorf("op %d ran on core %d, want %d", i, core, i%tc.cores)
					}
					order = append(order, i)
					sys.Mach.Tick(uint64(sys.Mach.ID+1) * 10)
					if i == failAt {
						return fmt.Errorf("op %d: %w", i, errStop)
					}
					return nil
				})
				return order, err
			}
			order, err := run(-1)
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if !slices.Equal(order, tc.order) {
				t.Errorf("run order %v, want %v", order, tc.order)
			}
			// Fail at op 4: the ops before it in run order have run,
			// and nothing after it starts on any core.
			order, err = run(4)
			if !errors.Is(err, errStop) {
				t.Fatalf("error %v, want the op's error", err)
			}
			want := tc.order[:slices.Index(tc.order, 4)+1]
			if !slices.Equal(order, want) {
				t.Errorf("run order with a failing op %v, want %v", order, want)
			}
			cl := slpmt.NewCluster(tc.cores, slpmt.Options{Scheme: "SLPMT"})
			ops := 0
			allocs := testing.AllocsPerRun(10, func() {
				_ = Shard(cl, n, func(*slpmt.System, int) error { ops++; return nil })
			})
			if allocs != 0 {
				t.Errorf("Shard makes %v allocations, want 0", allocs)
			}
		})
	}
}
