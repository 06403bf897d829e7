package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	lazyLines, mixedLines, abortedDups                     int
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
	var walk []*cache.Line
	e.txLines(func(l *cache.Line) { walk = append(walk, l) })
	aborted := make(map[mem.Addr]bool)
	for _, la := range e.abortedLines[e.cur.id] {
		aborted[la] = true
	}
	j := 0
	for _, l := range full {
		if j < len(walk) && walk[j] == l {
			if e.m.L2.Peek(l.Addr) == l {
				cov.l2Lines++
			}
			ws := e.cur.ws.lookup(l.Addr) >= 0
			if !ws && aborted[l.Addr] && l.Persist {
				cov.abortedLines++
			}
			if ws && aborted[l.Addr] {
				cov.abortedDups++
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
	var walk []*cache.Line
	e.epochLines(func(l *cache.Line) { walk = append(walk, l) })
	if len(walk) != len(full) {
		t.Fatalf("%s: epoch walk visits %d lines, full scan %d", where, len(walk), len(full))
	}
	for i, l := range walk {
		if l != full[i] {
			t.Fatalf("%s: epoch walk line %d is %#x, full scan has %#x", where, i, l.Addr, full[i].Addr)
		}
	}
	cov.epochLines += len(walk)
}

// lazyModel is the lazy-line rule, line by line: a store that sets the
// persist bit makes its line eager, and a store that leaves the bit
// clear makes it lazy (§III-C1); a store that finds the bit already set
// leaves the line as it was.
type lazyModel map[mem.Addr]bool

// store applies the rule to a store of attr at a that has just run:
// unless the store set the persist bit, the line's bit is the one it
// found.
func (lm lazyModel) store(e *Engine, a mem.Addr, attr isa.Attr) {
	line := mem.LineAddr(a)
	p, _ := e.m.PrivatePos(line)
	switch {
	case e.cfg.Caps.ResolveFor(isa.StoreT, attr).Persist:
		lm[line] = false
	case !e.m.PrivateLine(p).Persist:
		lm[line] = true
	}
}

// checkLazyList checks a commit against the lazy-line model. listed is
// the transaction's lazy list just before Commit and seq its sequence
// number. A listed line the write set does not hold must be lazy; one
// it holds must carry wsLogFree after Commit. The retained list must be
// the model's lazy lines in ascending order.
func checkLazyList(t *testing.T, where string, e *Engine, seq uint64, listed []uint32, lm lazyModel, cov *walkCoverage) {
	t.Helper()
	for _, en := range listed {
		la := lazyLine(en)
		if e.cur.ws.lookup(la) < 0 {
			if !lm[la] {
				t.Fatalf("%s: listed line %#x is not lazy", where, la)
			}
			continue
		}
		if e.cur.ws.val(la)&wsLogFree == 0 {
			t.Fatalf("%s: listed line %#x in the write set lacks wsLogFree", where, la)
		}
		cov.mixedLines++
	}
	var want []uint32
	for la, lazy := range lm {
		if lazy {
			want = append(want, lazyEntry(la))
		}
	}
	slices.Sort(want)
	var got []uint32
	if n := len(e.retained); n > 0 && e.retained[n-1].seq == seq {
		for _, en := range e.retained[n-1].lazy {
			got = append(got, en&^lazyDone)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: retained lazy list %x, want %x", where, got, want)
	}
	cov.lazyLines += len(got)
}

// TestIndexedCommitWalkMatchesFullScan drives random transactions —
// every store attribute, ID recycling, lazy lines, aborts, and an
// address pattern that overflows both L1 and L2 sets — on the default
// caches and on tiny ones (512 B L1, 1 KiB L2, 4 KiB L3), where most
// lines a walk visits sit in L2 and aborted lines are written again
// before the next commit under their ID, and checks at every commit that the write-set-indexed walks visit exactly the lines
// a full private-cache scan would act on, in the same order. The check
// runs just before Commit; nothing inside Commit moves a line before
// the walk (log and data persists leave the caches in place). After
// each commit the retained lazy list must match lazyModel.
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
	var total, small walkCoverage
	for _, base := range configs {
		for _, w := range []int{1, 4} {
			for _, cores := range []int{1, 2} {
				for _, tiny := range []bool{false, true} {
					cfg := base
					cfg.CommitWindow = w
					name := fmt.Sprintf("%s/W%d/%dc", cfg.Name, w, cores)
					mcfg := machine.Config{Cores: cores}
					if tiny {
						name += "-small"
						mcfg.L1 = cache.Config{Name: "L1", SizeBytes: 512, Ways: 2, LatencyCycles: 4}
						mcfg.L2 = cache.Config{Name: "L2", SizeBytes: 1 << 10, Ways: 2, LatencyCycles: 12}
						mcfg.L3 = cache.Config{Name: "L3", SizeBytes: 4 << 10, Ways: 4, LatencyCycles: 40}
					}
					t.Run(name, func(t *testing.T) {
						plat := machine.New(mcfg)
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
							lm := lazyModel{}
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
								attr := attrs[rng.Intn(len(attrs))]
								e.StoreU64(a, rng.Uint64(), isa.StoreT, attr)
								lm.store(e, a, attr)
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
							listed, seq := slices.Clone(e.cur.lazy), e.cur.seq
							e.Commit()
							checkLazyList(t, where, e, seq, listed, lm, &cov)
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
						total.lazyLines += cov.lazyLines
						total.mixedLines += cov.mixedLines
						if tiny {
							small.l2Lines += cov.l2Lines
							small.abortedDups += cov.abortedDups
						}
					})
				}
			}
		}
	}
	// Across the grid the scan must have matched stale recycled-ID
	// lines, carried aborted lines must have reached a later walk, and
	// lazy lines must have been retained, some of them first listed and
	// then taken into the write set by a later store.
	if total.staleNoops == 0 || total.abortedLines == 0 || total.lazyLines == 0 || total.mixedLines == 0 {
		t.Errorf("stale-ID, aborted-line or lazy-line cases never arose: %+v", total)
	}
	// On the tiny caches walks must have visited L2 lines and aborted
	// lines the committing transaction wrote again (marked twice).
	if small.l2Lines == 0 || small.abortedDups == 0 {
		t.Errorf("small-cache L2 or aborted-duplicate lines never arose: %+v", small)
	}
}

// TestResetAfterCrashInCommitWalk crashes an undo engine at every
// persist of a few commit walks, each of which stops the walk before
// the marks it has not reached, and then resets the machine and the
// engine the way Cluster.Reset does. The reset engine must hold the
// marks a new engine holds (none), and a run on the reset platform must
// give the counters and clock of the same run on a new one.
func TestResetAfterCrashInCommitWalk(t *testing.T) {
	cfg := slpmtCfg()
	build := func() (*machine.Machine, *Engine) {
		plat := machine.New(machine.Config{})
		return plat, New(plat.Core(0), cfg)
	}
	// run commits 30 transactions of 12 eager stores each over 64
	// lines, crashing at persist event crashAt (0 = never). It reports
	// whether the crash left marks behind.
	run := func(plat *machine.Machine, e *Engine, crashAt uint64) (leftMarks bool) {
		plat.CrashAfterTotal = crashAt
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*machine.CrashSignal); !ok {
					panic(r)
				}
				leftMarks = e.marks.lo < e.marks.hi
			}
		}()
		heap := plat.Core(0).Layout.HeapBase
		rng := rand.New(rand.NewSource(1))
		for txn := 0; txn < 30; txn++ {
			e.Begin()
			for op := 0; op < 12; op++ {
				a := heap + mem.Addr(rng.Intn(64))*mem.LineSize + mem.Addr(rng.Intn(mem.WordsPerLine))*mem.WordSize
				e.StoreU64(a, rng.Uint64(), isa.StoreT, isa.LogFree)
			}
			e.Commit()
		}
		return false
	}
	wantPlat, wantEng := build()
	run(wantPlat, wantEng, 0)
	want, wantClk := wantPlat.MergedStats(), wantPlat.MaxClk()
	fresh := New(machine.New(machine.Config{}).Core(0), cfg).marks

	plat, e := build()
	crashes := 0
	for crashAt := uint64(1); crashes < 8 && crashAt < 400; crashAt++ {
		if !run(plat, e, crashAt) {
			plat.Reset()
			e.Reset()
			continue
		}
		crashes++
		plat.Reset()
		e.Reset()
		if !reflect.DeepEqual(e.marks, fresh) {
			t.Fatalf("crash at %d: reset engine's walk marks %+v, a new engine's %+v", crashAt, e.marks, fresh)
		}
		run(plat, e, 0)
		if got, clk := plat.MergedStats(), plat.MaxClk(); got != want || clk != wantClk {
			t.Fatalf("crash at %d: after Reset the run gives clock %d and\n%+v\na new platform gives clock %d and\n%+v",
				crashAt, clk, got, wantClk, want)
		}
		plat.Reset()
		e.Reset()
	}
	if crashes == 0 {
		t.Fatal("no crash landed inside a commit walk")
	}
	t.Logf("%d crashes inside a commit walk", crashes)
}
