package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
)

// fullPrivateScan is the commit scan the indexed walks replace: every
// line of the private caches, L1 before L2, set then way, filtered by
// match.
func fullPrivateScan(c *machine.Core, match func(*cache.Line) bool) []*cache.Line {
	var out []*cache.Line
	for _, level := range []*cache.Cache{c.L1, c.L2} {
		level.ForEach(func(l *cache.Line) {
			if match(l) {
				out = append(out, l)
			}
		})
	}
	return out
}

// walkCoverage counts what the order-equivalence checks exercised, so
// the test can fail on a workload too tame to mean anything.
type walkCoverage struct {
	txLines, l2Lines, staleNoops, abortedLines, epochLines int
}

// checkTxWalk compares txLines with the full scan by transaction ID: the
// indexed walk must visit the scan's lines in the scan's order, and
// every scan line it skips must be a no-op for the commit — a stale line
// whose recycled 2-bit ID matches, with its metadata already cleared.
// A grouped commit clears only log bits (persist bits wait for the
// epoch close), so there a stale line may still carry its persist bit.
func checkTxWalk(t *testing.T, where string, e *Engine, cov *walkCoverage) {
	t.Helper()
	id := lineID(e.cur.id)
	full := fullPrivateScan(e.m, func(l *cache.Line) bool { return l.TxID == id })
	walk := e.txLines()
	aborted := make(map[mem.Addr]bool)
	for _, la := range e.abortedLines[e.cur.id] {
		aborted[la] = true
	}
	j := 0
	for _, l := range full {
		if j < len(walk) && e.m.PrivateLine(walk[j]) == l {
			if int(walk[j]) >= e.m.L1.Lines() {
				cov.l2Lines++
			}
			if ws := e.cur.ws.lookup(l.Addr) >= 0; !ws && aborted[l.Addr] && l.Persist {
				cov.abortedLines++
			}
			j++
			continue
		}
		if (l.Persist && !e.grouped()) || l.LogBits != 0 {
			t.Fatalf("%s: full scan matches line %#x (persist=%v log=%#x) the indexed walk skips",
				where, l.Addr, l.Persist, l.LogBits)
		}
		cov.staleNoops++
	}
	if j != len(walk) {
		t.Fatalf("%s: indexed walk visits %d lines, only %d of them in full-scan order", where, len(walk), j)
	}
	cov.txLines += len(walk)
}

// checkEpochWalk compares epochLines with the full scan by address.
func checkEpochWalk(t *testing.T, where string, e *Engine, cov *walkCoverage) {
	t.Helper()
	full := fullPrivateScan(e.m, func(l *cache.Line) bool {
		return e.epochPending.lookup(l.Addr) >= 0
	})
	walk := e.epochLines()
	if len(walk) != len(full) {
		t.Fatalf("%s: epoch walk visits %d lines, full scan %d", where, len(walk), len(full))
	}
	for i, p := range walk {
		if l := e.m.PrivateLine(p); l != full[i] {
			t.Fatalf("%s: epoch walk line %d is %#x, full scan has %#x", where, i, l.Addr, full[i].Addr)
		}
	}
	cov.epochLines += len(walk)
}

// TestIndexedCommitWalkMatchesFullScan drives random transactions —
// every store attribute, ID recycling, lazy lines, aborts, and an
// address pattern that overflows both L1 and L2 sets — and checks at
// every commit that the write-set-indexed walks visit exactly the lines
// a full private-cache scan would act on, in the same order. The check
// runs just before Commit; nothing inside Commit moves a line before
// the walk (log and data persists leave the caches in place).
func TestIndexedCommitWalkMatchesFullScan(t *testing.T) {
	configs := []Config{
		fgCfg(),
		{Name: "ATOM", Granularity: Line, Mode: Undo, Buffer: BufferTiered},
		{Name: "EDE", Granularity: Word, Mode: Undo, Buffer: BufferDirect},
		slpmtCfg(),
		{Name: "SLPMT-redo", Caps: isa.Caps{HonorLogFree: true, HonorLazy: true},
			Granularity: Word, Mode: Redo, Buffer: BufferTiered},
	}
	attrs := []isa.Attr{isa.Plain, isa.LogFree, isa.LazyLogFree, isa.LazyLogged}
	var total walkCoverage
	for _, base := range configs {
		for _, w := range []int{1, 4} {
			for _, cores := range []int{1, 2} {
				cfg := base
				cfg.CommitWindow = w
				name := fmt.Sprintf("%s/W%d/%dc", cfg.Name, w, cores)
				t.Run(name, func(t *testing.T) {
					plat := machine.New(machine.Config{Cores: cores})
					engs := make([]*Engine, cores)
					for i := range engs {
						engs[i] = New(plat.Core(i), cfg)
					}
					plat.OnRemoteStore = func(src int, line mem.Addr) {
						for i, e := range engs {
							if i != src {
								e.CoherenceStore(line)
							}
						}
					}
					if w > 1 && cores > 1 {
						NewEpochGroup(engs)
					}
					heap := plat.Core(0).Layout.HeapBase
					rng := rand.New(rand.NewSource(int64(len(name))))
					var cov walkCoverage
					for txn := 0; txn < 120; txn++ {
						core := txn % cores
						e := engs[core]
						e.Begin()
						for op := rng.Intn(30) + 1; op > 0; op-- {
							// Each core owns 3 L1 sets x 4 L2 sets each x 6
							// lines per L2 set, so L1 (8-way) and L2 (4-way)
							// both overflow; one access in eight goes to the
							// other core's lines.
							region := core
							if rng.Intn(8) == 0 {
								region = (core + 1) % cores
							}
							a := heap + mem.Addr(3*region+rng.Intn(3))*mem.LineSize +
								mem.Addr(rng.Intn(4))*(4<<10) + mem.Addr(rng.Intn(6))*(64<<10) +
								mem.Addr(rng.Intn(mem.WordsPerLine))*mem.WordSize
							if rng.Intn(4) == 0 {
								e.LoadU64(a)
								continue
							}
							e.StoreU64(a, rng.Uint64(), isa.StoreT, attrs[rng.Intn(len(attrs))])
						}
						where := fmt.Sprintf("txn %d", txn)
						if rng.Intn(10) == 0 {
							e.Abort()
							continue
						}
						checkTxWalk(t, where, e, &cov)
						if e.grouped() {
							checkEpochWalk(t, where, e, &cov)
						}
						e.Commit()
					}
					for _, e := range engs {
						e.FinishEpoch()
						e.DrainLazy()
					}
					if cov.txLines == 0 || cov.l2Lines == 0 {
						t.Errorf("walk coverage too thin: %+v", cov)
					}
					if w > 1 && cov.epochLines == 0 {
						t.Errorf("no epoch walk exercised: %+v", cov)
					}
					total.staleNoops += cov.staleNoops
					total.abortedLines += cov.abortedLines
				})
			}
		}
	}
	// Across the grid the scan must have matched stale recycled-ID
	// lines, and carried aborted lines must have reached a later walk.
	if total.staleNoops == 0 || total.abortedLines == 0 {
		t.Errorf("stale-ID or aborted-line cases never arose: %+v", total)
	}
}
