package engine

// Micro-benchmarks of the simulator substrates themselves — the
// library's own performance, not paper figures. Run with
// `go test -bench=Micro ./internal/engine`.

import (
	"fmt"
	"testing"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logbuf"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/signature"
)

func BenchmarkMicroTransactionRoundTrip(b *testing.B) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Begin()
		a := base + mem.Addr(i%4096)*mem.LineSize
		e.StoreU64(a, uint64(i), isa.Store, isa.Plain)
		e.StoreU64(a+8, uint64(i), isa.StoreT, isa.LogFree)
		e.Commit()
	}
	b.ReportMetric(float64(m.Clk)/float64(b.N), "simcycles/txn")
}

func BenchmarkMicroStoreLogged(b *testing.B) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.StoreU64(base+mem.Addr(i%(1<<15))*8, uint64(i), isa.Store, isa.Plain)
		if i%4096 == 4095 {
			// Bound the transaction size (the log area holds ~256k
			// word records per transaction).
			e.Commit()
			e.Begin()
		}
	}
	b.StopTimer()
	e.Commit()
	_ = m
}

func BenchmarkMicroLoadHit(b *testing.B) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LoadU64(base)
	}
	b.StopTimer()
	e.Commit()
	_ = m
}

// BenchmarkMicroLogWriterAppendSync measures the raw logWriter: one
// record appended per "transaction", with the watermark sync amortized
// over a window of 1 (per-transaction protocol) or 16 (group commit).
// The append/sync path itself is allocation-free — the record payload
// rides in a caller-reused buffer and the writer packs it into its
// line staging without copying out.
func BenchmarkMicroLogWriterAppendSync(b *testing.B) {
	for _, window := range []int{1, 16} {
		b.Run(fmt.Sprintf("w%d", window), func(b *testing.B) {
			w, m := newWriter()
			payload := make([]byte, 8)
			r := logbuf.Record{Addr: 0x1000, Data: payload}
			limit := m.Layout.LogSize - 4096
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Addr = mem.Addr(0x1000 + (i%512)*8)
				w.append(r)
				if (i+1)%window == 0 {
					w.sync()
				}
				if w.nextOff >= limit {
					b.StopTimer()
					w.reset(uint64(i))
					b.StartTimer()
				}
			}
			b.StopTimer()
			w.sync()
		})
	}
}

// BenchmarkMicroLogAppendSync drives the full engine commit path in
// steady state, per-transaction (w1) against group commit (w16) —
// the end-to-end cost the logWriter benchmark isolates.
func BenchmarkMicroLogAppendSync(b *testing.B) {
	for _, w := range []int{1, 16} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			cfg := slpmtCfg()
			cfg.CommitWindow = w
			e, m := newEng(cfg)
			base := m.Layout.HeapBase
			// Warm the working set and the epoch maps.
			for i := 0; i < 64; i++ {
				e.Begin()
				e.StoreU64(base+mem.Addr(i%16)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
				e.Commit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Begin()
				e.StoreU64(base+mem.Addr(i%16)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
				e.Commit()
			}
			b.StopTimer()
			e.FinishEpoch()
			b.ReportMetric(float64(m.Clk)/float64(b.N), "simcycles/txn")
		})
	}
}

// BenchmarkMicroSmallTxAfterLargeTx runs one ~4,096-line transaction,
// then b.N one-store transactions: the cost a workload's rare large
// transaction (a hash-table rehash) leaves on every later one, whose
// Begin resets the write set the large one grew.
func BenchmarkMicroSmallTxAfterLargeTx(b *testing.B) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	for i := 0; i < 4096; i++ {
		e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
	}
	e.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Begin()
		e.StoreU64(base+mem.Addr(i%16)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
		e.Commit()
	}
}

// BenchmarkMicroCommitWriteSet times whole transactions by write-set
// size: each writes its lines once, every fourth one with a lazy storeT
// (so Commit discards and defers those), and commits per transaction
// (w1) or into a 16-transaction epoch (w16). The cost is the engine's
// commit layer: the write-set probes, the address-ordered walks and
// the lazy hand-off, on top of the simulated persists. Transactions
// rotate over 2*NumTxIDs disjoint regions, so a store meets no retained
// transaction's lines. Large signatures still report false hits, whose
// forced drains split the open epoch around the running transaction;
// the epoch then closes in full once its stream passes half the log
// area (see Begin).
func BenchmarkMicroCommitWriteSet(b *testing.B) {
	for _, w := range []int{1, 16} {
		for _, lines := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("w%d/lines%d", w, lines), func(b *testing.B) {
				cfg := slpmtCfg()
				cfg.CommitWindow = w
				e, m := newEng(cfg)
				base := m.Layout.HeapBase
				txn := func(i int) {
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
				}
				const warm = 32 // two 16-transaction epochs: every buffer at size
				for i := 0; i < warm; i++ {
					txn(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					txn(i)
				}
				b.StopTimer()
				e.FinishEpoch()
				e.DrainLazy()
				b.ReportMetric(float64(m.Clk)/float64(b.N+warm), "simcycles/txn")
			})
		}
	}
}

// BenchmarkMicroCommitWalk measures a commit walk's host side over 256
// written lines that share 8 L1 sets, so 192 of them sit in L2:
// marking each line's scan position and visiting the marks in scan
// order, clearing each line's log bits.
func BenchmarkMicroCommitWalk(b *testing.B) {
	e, m := newEng(slpmtCfg())
	e.Begin()
	for i := 0; i < 256; i++ {
		e.StoreU64(m.Layout.HeapBase+mem.Addr(i)*(mem.LineSize*8), 1, isa.Store, isa.Plain)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.txLines(func(l *cache.Line) { l.LogBits = 0 })
	}
}

// BenchmarkMicroLazyMoveCommit commits one rehash-shaped transaction
// per iteration on a fresh engine: 2,048 lazy log-free moves to
// distinct lines and 8 logged stores, then a drain of the lazy lines.
// B/op is what the engine grows to hold such a transaction the first
// time, as a new platform's first hash-table rehash does; building the
// engine is not timed.
func BenchmarkMicroLazyMoveCommit(b *testing.B) {
	const moves, logged = 2048, 8
	m := machine.New(machine.Config{}).Core(0)
	base := m.Layout.HeapBase
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(m, slpmtCfg())
		b.StartTimer()
		e.Begin()
		for j := 0; j < moves; j++ {
			e.StoreU64(base+mem.Addr(logged+j)*mem.LineSize, uint64(i), isa.StoreT, isa.LazyLogFree)
		}
		for j := 0; j < logged; j++ {
			e.StoreU64(base+mem.Addr(j)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
		}
		e.Commit()
		e.DrainLazy()
	}
}

func BenchmarkMicroSignature(b *testing.B) {
	var s signature.Signature
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mem.Addr(i) * mem.LineSize
		s.Add(a)
		if !s.MayContain(a) {
			b.Fatal("false negative")
		}
	}
}
