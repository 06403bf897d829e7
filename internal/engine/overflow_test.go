package engine

import (
	"testing"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/mem"
)

// TestReopenedEpochsDoNotOverflowLog runs BenchmarkMicroCommitWriteSet's
// w16/lines4096 loop with no harness durability boundary: every
// transaction writes 4,096 lines, a quarter of them lazily, so large
// retained signatures report false hits whose forced drains close the
// open epoch mid-transaction and reopen it around the running one. Such
// a chain of reopens never resets the log stream, and used to run the
// log area out ("engine: log area overflow") within ~90 transactions.
func TestReopenedEpochsDoNotOverflowLog(t *testing.T) {
	t.Parallel()
	const lines, txns = 4096, 128
	e, m := newEng(windowCfg(16))
	base := m.Layout.HeapBase
	maxOff := uint64(0)
	for i := 0; i < txns; i++ {
		e.Begin()
		region := base + mem.Addr(i%(2*NumTxIDs)*lines)*mem.LineSize
		for j := 0; j < lines; j++ {
			a := region + mem.Addr(j)*mem.LineSize
			if j%4 == 3 {
				e.StoreU64(a, uint64(i), isa.StoreT, isa.LazyLogFree)
			} else {
				e.StoreU64(a, uint64(i), isa.Store, isa.Plain)
			}
		}
		e.Commit()
		maxOff = max(maxOff, e.w.nextOff)
	}
	e.FinishEpoch()
	e.DrainLazy()
	if m.Stats.EpochCloses < txns/16 {
		t.Errorf("%d epoch closes over %d transactions, want at least %d", m.Stats.EpochCloses, txns, txns/16)
	}
	if maxOff > m.Layout.LogSize {
		t.Errorf("log stream reached offset %d past the %d-byte log area", maxOff, m.Layout.LogSize)
	}
	// Every line holds the last value written to it, durably.
	for r := 0; r < 2*NumTxIDs; r++ {
		last := uint64(txns - 1 - (txns-1-r)%(2*NumTxIDs))
		for j := 0; j < lines; j++ {
			a := base + mem.Addr(r*lines+j)*mem.LineSize
			if got := m.PM.ReadU64(a); got != last {
				t.Fatalf("region %d line %d: durable %d, want %d", r, j, got, last)
			}
		}
	}
}
