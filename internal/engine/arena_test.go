package engine

import (
	"testing"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
)

// arenaLines is the size of the arena tests' transaction: every word of
// 256 lines, 16 KiB of store-time payload, which outgrows the first
// arena block several times over.
const arenaLines = 256

// arenaCfgs are the three payload paths: undo word records, redo word
// records (refreshed through refreshRecord at spill time) and undo line
// records.
func arenaCfgs() []Config {
	undo := slpmtCfg()
	undo.Name = "undo-word"
	redo := slpmtCfg()
	redo.Name = "redo-word"
	redo.Mode = Redo
	line := slpmtCfg()
	line.Name = "undo-line"
	line.Granularity = Line
	return []Config{undo, redo, line}
}

// arenaTx stores v+i into word i of the arena region, inside one
// transaction the caller opens and closes.
func arenaTx(e *Engine, base mem.Addr, v uint64) {
	for i := 0; i < arenaLines*mem.WordsPerLine; i++ {
		e.StoreU64(base+mem.Addr(i*mem.WordSize), v+uint64(i), isa.Store, isa.Plain)
	}
}

// arenaSetup commits the old values (100+i) and returns the engine.
func arenaSetup(cfg Config) (*Engine, *machine.Core, mem.Addr) {
	e, m := newEng(cfg)
	base := m.Layout.HeapBase
	e.Begin()
	arenaTx(e, base, 100)
	e.Commit()
	return e, m, base
}

// TestScratchArenaGrowth: a transaction whose payloads outgrow the
// arena's first block several times still logs every payload intact —
// abort restores the old values, and so does recovery after a crash
// anywhere in the commit — and once the arena has grown, repeating a
// transaction of the same size allocates nothing.
func TestScratchArenaGrowth(t *testing.T) {
	for _, cfg := range arenaCfgs() {
		t.Run(cfg.Name, func(t *testing.T) {
			e, _, base := arenaSetup(cfg)
			if len(e.scratch) < scratchBlock<<4 {
				t.Fatalf("arena block = %d B after %d payload bytes, want at least %d (four growths)",
					len(e.scratch), arenaLines*mem.LineSize, scratchBlock<<4)
			}

			e.Begin()
			arenaTx(e, base, 200)
			e.Abort()
			for i := 0; i < arenaLines*mem.WordsPerLine; i++ {
				a := base + mem.Addr(i*mem.WordSize)
				if got := e.LoadU64(a); got != 100+uint64(i) {
					t.Fatalf("word %d after abort = %d, want %d", i, got, 100+i)
				}
			}

			e.Begin()
			arenaTx(e, base, 100)
			e.Commit()
			allocs := testing.AllocsPerRun(3, func() {
				e.Begin()
				arenaTx(e, base, 100)
				e.Commit()
			})
			if allocs != 0 {
				t.Errorf("repeated transaction allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// TestScratchArenaCrashRecovery crashes the arena transaction at
// sampled persist events through its commit: rolling back (undo,
// uncommitted) or replaying (redo, committed) the crash image's log
// must yield the old or the new values everywhere, as the header says.
func TestScratchArenaCrashRecovery(t *testing.T) {
	for _, cfg := range arenaCfgs() {
		t.Run(cfg.Name, func(t *testing.T) {
			// Reference run to learn the commit's persist-event count.
			e, m, base := arenaSetup(cfg)
			start := m.Machine().PersistTotal
			e.Begin()
			arenaTx(e, base, 200)
			e.Commit()
			total := m.Machine().PersistTotal - start
			for pt := uint64(1); pt <= total; pt += 37 {
				img, seq := arenaCrash(cfg, pt)
				if img == nil {
					continue
				}
				committed := arenaRecover(t, img, seq)
				for i := 0; i < arenaLines*mem.WordsPerLine; i++ {
					want := 100 + uint64(i)
					if committed {
						want = 200 + uint64(i)
					}
					if got := img.ReadU64(uint64(base) + uint64(i*mem.WordSize)); got != want {
						t.Fatalf("crash@%d/%d (committed=%v): word %d = %d, want %d", pt, total, committed, i, got, want)
					}
				}
			}
		})
	}
}

// arenaCrash runs the arena transaction with a crash after pt persist
// events, returning the crash image and the transaction's sequence
// number, or nil if the run finished first.
func arenaCrash(cfg Config, pt uint64) (img *pmem.Image, seq uint64) {
	e, m, base := arenaSetup(cfg)
	m.Machine().CrashAfterTotal = m.Machine().PersistTotal + pt
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(machine.CrashSignal); !ok {
			panic(r)
		}
		img = m.Crash()
	}()
	e.Begin()
	seq = e.Seq()
	arenaTx(e, base, 200)
	e.Commit()
	return nil, seq
}

// arenaRecover applies the image's log the way recovery does for one
// transaction — undo records backwards if it is still active, redo
// records forwards if it committed — and reports whether the
// transaction seq committed.
func arenaRecover(t *testing.T, img *pmem.Image, seq uint64) bool {
	t.Helper()
	layout := mem.DefaultLayout(img.Size())
	raw := make([]byte, layout.LogSize)
	img.Read(layout.LogBase, raw)
	hdr := logfmt.DecodeHeader(raw)
	if hdr.Seq != seq {
		return false // the crash fell before Begin's header write
	}
	committed := hdr.State == logfmt.StateCommitted
	recs, err := logfmt.ParseRecords(raw, hdr.Seq)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case hdr.Mode == logfmt.ModeUndo && hdr.State == logfmt.StateActive:
		for i := len(recs) - 1; i >= 0; i-- {
			img.Write(recs[i].Addr, recs[i].Data)
		}
	case hdr.Mode == logfmt.ModeRedo && committed:
		for _, r := range recs {
			img.Write(r.Addr, r.Data)
		}
	}
	return committed
}
