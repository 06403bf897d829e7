package engine

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
)

// TestRedoFenceHoldsThroughL3Evictions: on caches far smaller than a
// transaction's write set, logged redo lines overflow every level, so
// their L3 writebacks meet the filter. No new value may reach PM before
// its commit point (the transaction's at W=1, the epoch close at W=4),
// and the commit must force-persist every vetoed line.
func TestRedoFenceHoldsThroughL3Evictions(t *testing.T) {
	const lines = 300
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			cfg := windowCfg(w)
			cfg.Mode = Redo
			m := machine.New(machine.Config{
				L1: cache.Config{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LatencyCycles: 4},
				L2: cache.Config{Name: "L2", SizeBytes: 2 << 10, Ways: 2, LatencyCycles: 12},
				L3: cache.Config{Name: "L3", SizeBytes: 4 << 10, Ways: 2, LatencyCycles: 40},
			}).Core(0)
			e := New(m, cfg)
			addr := func(tx, i int) mem.Addr { return m.Layout.HeapBase + mem.Addr(tx*lines+i)*mem.LineSize }
			val := func(tx, i int) uint64 { return uint64(tx+1)<<32 | uint64(i+1) }
			// notDurable checks that no line of transaction tx holds its
			// new value in PM.
			notDurable := func(when string, tx int) {
				t.Helper()
				for i := 0; i < lines; i++ {
					if m.PM.ReadU64(addr(tx, i)) == val(tx, i) {
						t.Fatalf("%s: transaction %d's line %d reached PM before its commit point", when, tx, i)
					}
				}
			}
			for tx := 0; tx < 2; tx++ {
				e.Begin()
				for i := 0; i < lines; i++ {
					e.StoreU64(addr(tx, i), val(tx, i), isa.Store, isa.Plain)
				}
				if len(e.suppressed) == 0 {
					t.Fatalf("transaction %d: no writeback was vetoed; the caches no longer overflow", tx)
				}
				notDurable("mid-transaction", tx)
				if w > 1 && tx == 1 {
					notDurable("open epoch", 0)
				}
				e.Commit()
			}
			e.FinishEpoch()
			for tx := 0; tx < 2; tx++ {
				for i := 0; i < lines; i++ {
					if got := m.PM.ReadU64(addr(tx, i)); got != val(tx, i) {
						t.Fatalf("transaction %d line %d: durable %#x, want %#x", tx, i, got, val(tx, i))
					}
				}
			}
			if n := len(e.suppressed); n != 0 {
				t.Errorf("%d vetoed lines left after the commit point", n)
			}
			if m.Stats.L3Writebacks != 0 {
				t.Errorf("%d natural L3 writebacks reached PM; every dirty line here is fenced", m.Stats.L3Writebacks)
			}
		})
	}
}

// TestAbortHostAllocation: reading back the core's own log on abort
// reuses its buffers, so a commit+abort pair costs the host almost no
// allocation at any window and log mode.
func TestAbortHostAllocation(t *testing.T) {
	const pairs = 20
	for _, w := range []int{1, 4} {
		for _, mode := range []LogMode{Undo, Redo} {
			t.Run(fmt.Sprintf("W=%d/%v", w, mode), func(t *testing.T) {
				cfg := windowCfg(w)
				cfg.Mode = mode
				e, m := newEng(cfg)
				base := m.Layout.HeapBase
				pair := func(v uint64) {
					for i := 0; i < 2; i++ {
						e.Begin()
						for j := 0; j < 4; j++ {
							e.StoreU64(base+mem.Addr(j)*mem.LineSize, v+uint64(i), isa.Store, isa.Plain)
						}
						if i == 0 {
							e.Commit()
						} else {
							e.Abort()
						}
					}
				}
				for v := uint64(0); v < 5; v++ {
					pair(v)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for v := uint64(0); v < pairs; v++ {
					pair(v)
				}
				runtime.ReadMemStats(&after)
				per := (after.TotalAlloc - before.TotalAlloc) / pairs
				if per > 1024 {
					t.Errorf("commit+abort pair allocates %d B, want <= 1024", per)
				}
				t.Logf("%d B per commit+abort pair", per)
			})
		}
	}
}
