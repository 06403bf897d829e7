package engine

import (
	"fmt"
	"slices"
	"testing"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/trace"
)

func slpmtCfg() Config {
	return Config{
		Name:        "SLPMT",
		Caps:        isa.Caps{HonorLogFree: true, HonorLazy: true},
		Granularity: Word,
		Mode:        Undo,
		Buffer:      BufferTiered,
	}
}

func fgCfg() Config {
	c := slpmtCfg()
	c.Name = "FG"
	c.Caps = isa.Caps{}
	return c
}

func newEng(cfg Config) (*Engine, *machine.Core) {
	m := machine.New(machine.Config{}).Core(0)
	e := New(m, cfg)
	return e, m
}

func TestTableIOnCacheBits(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	cases := []struct {
		attr    isa.Attr
		kind    isa.Kind
		persist bool
		logged  bool
	}{
		{isa.Plain, isa.Store, true, true},
		{isa.LogFree, isa.StoreT, true, false},
		{isa.LazyLogFree, isa.StoreT, false, false},
		{isa.LazyLogged, isa.StoreT, false, true},
	}
	for i, c := range cases {
		a := base + mem.Addr(i)*mem.LineSize
		e.StoreU64(a, 1, c.kind, c.attr)
		l := m.L1.Peek(a)
		if l == nil {
			t.Fatalf("case %d: line not cached", i)
		}
		if l.Persist != c.persist {
			t.Errorf("case %d: persist bit %v, want %v", i, l.Persist, c.persist)
		}
		if (l.LogBits != 0) != c.logged {
			t.Errorf("case %d: log bits %#x, want logged=%v", i, l.LogBits, c.logged)
		}
		if l.TxID != lineID(0) {
			t.Errorf("case %d: txid %d", i, l.TxID)
		}
	}
	e.Commit()
}

func TestBaselineIgnoresStoreT(t *testing.T) {
	e, m := newEng(fgCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.StoreT, isa.LazyLogFree)
	l := m.L1.Peek(base)
	if !l.Persist || l.LogBits == 0 {
		t.Error("FG baseline must treat storeT as store")
	}
	e.Commit()
	if e.RetainedLazyLines() != 0 {
		t.Error("FG baseline deferred data")
	}
}

func TestWordGranularLogging(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.StoreU64(base+8, 2, isa.Store, isa.Plain)
	if got := m.Stats.LogRecordsCreated; got != 2 {
		t.Errorf("records created = %d, want 2", got)
	}
	// Re-store to a logged word: no new record.
	e.StoreU64(base, 3, isa.Store, isa.Plain)
	if got := m.Stats.LogRecordsCreated; got != 2 {
		t.Errorf("re-store created a record (total %d)", got)
	}
	l := m.L1.Peek(base)
	if l.LogBits != 0x03 {
		t.Errorf("log bits = %#x, want 0x03", l.LogBits)
	}
	e.Commit()
}

func TestLineGranularLogging(t *testing.T) {
	cfg := slpmtCfg()
	cfg.Granularity = Line
	e, m := newEng(cfg)
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.StoreU64(base+32, 2, isa.Store, isa.Plain)
	if got := m.Stats.LogRecordsCreated; got != 1 {
		t.Errorf("line-granular records = %d, want 1", got)
	}
	if got := m.Stats.LogBytesPersisted; got != 0 && got != 72 {
		t.Errorf("unexpected log bytes before commit: %d", got)
	}
	e.Commit()
	if got := m.Stats.LogBytesPersisted; got != 72 {
		t.Errorf("persisted log bytes = %d, want 72 (one line record)", got)
	}
	e.Begin()
	e.Commit()
}

// TestUndoCommitDurability: after Commit returns, every logged and
// log-free store is durable.
func TestUndoCommitDurability(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 11, isa.Store, isa.Plain)
	e.StoreU64(base+mem.LineSize, 22, isa.StoreT, isa.LogFree)
	e.Commit()
	if m.PM.ReadU64(base) != 11 || m.PM.ReadU64(base+mem.LineSize) != 22 {
		t.Error("committed data not durable")
	}
	raw := make([]byte, 256)
	m.PM.Read(m.Layout.LogBase, raw)
	hdr := logfmt.DecodeHeader(raw)
	if hdr.State != logfmt.StateCommitted {
		t.Errorf("log state = %d, want committed", hdr.State)
	}
}

// TestLazyDeferredThenForcedBySignature: lazy data stays volatile after
// commit; a store hitting the retained working set forces it durable
// before proceeding.
func TestLazyDeferredThenForcedBySignature(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	lazyAddr := base
	wsAddr := base + 4*mem.LineSize

	e.Begin()
	e.LoadU64(wsAddr) // read set
	e.StoreU64(lazyAddr, 123, isa.StoreT, isa.LazyLogFree)
	e.Commit()

	if e.RetainedLazyLines() != 1 {
		t.Fatalf("retained lazy lines = %d, want 1", e.RetainedLazyLines())
	}
	if m.PM.ReadU64(lazyAddr) == 123 {
		t.Fatal("lazy data persisted eagerly")
	}

	// A store to the read-set address (outside any transaction, as the
	// paper allows) must force the lazy line durable first.
	e.StoreU64(wsAddr, 9, isa.Store, isa.Plain)
	if m.PM.ReadU64(lazyAddr) != 123 {
		t.Fatal("working-set conflict did not force the lazy persist")
	}
	if e.RetainedLazyLines() != 0 {
		t.Error("retained entry not released")
	}
	if m.Stats.SignatureHits == 0 {
		t.Error("signature hit not counted")
	}
}

// TestLazyForcedByLineOwnerCheck: touching a cache line whose TxID
// belongs to a retained transaction forces its lazy data durable.
func TestLazyForcedByLineOwnerCheck(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 55, isa.StoreT, isa.LazyLogFree)
	e.Commit()
	if m.PM.ReadU64(base) == 55 {
		t.Fatal("lazy data persisted eagerly")
	}
	// A later transaction loading the lazy line triggers the TxID check.
	e.Begin()
	e.LoadU64(base)
	e.Commit()
	if m.PM.ReadU64(base) != 55 {
		t.Error("line-owner check did not force the lazy persist")
	}
	if m.Stats.TxIDCrossAccess == 0 {
		t.Error("cross-access not counted")
	}
}

// TestLazyCancelledByLaterStore: an eager store to a lazily persistent
// line sets the persist bit, so the line persists at that commit
// (§III-C1).
func TestLazyCancelledByLaterStore(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.StoreT, isa.LazyLogFree)
	e.StoreU64(base+8, 2, isa.Store, isa.Plain) // same line, eager
	e.Commit()
	if m.PM.ReadU64(base) != 1 || m.PM.ReadU64(base+8) != 2 {
		t.Error("line with cancelled lazy persistence not durable at commit")
	}
	if e.RetainedLazyLines() != 0 {
		t.Error("cancelled lazy line still tracked")
	}
}

// TestLazyMovesSkipWriteSet: a rehash-shaped transaction — 3,000 lazy
// log-free stores to fresh lines in descending order, each line stored
// twice in a row and again in a second ascending pass, plus logged
// stores to four other lines and to one of the lazy lines — keeps only
// the five logged lines in its write set. Its retained lazy list is the
// other lazy lines, sorted and unique, and the mixed line keeps both
// classes and is not lazy.
func TestLazyMovesSkipWriteSet(t *testing.T) {
	const lines, logged = 3000, 4
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	at := func(i int) mem.Addr { return base + mem.Addr(i)*mem.LineSize }
	e.Begin()
	for i := lines - 1; i >= 0; i-- {
		e.StoreU64(at(i), 1, isa.StoreT, isa.LazyLogFree)
		e.StoreU64(at(i)+8, 2, isa.StoreT, isa.LazyLogFree)
	}
	for i := lines; i < lines+logged; i++ {
		e.StoreU64(at(i), 3, isa.Store, isa.Plain)
	}
	for i := 0; i < lines; i++ {
		e.StoreU64(at(i)+16, 4, isa.StoreT, isa.LazyLogFree)
	}
	e.StoreU64(at(0)+24, 5, isa.Store, isa.Plain)
	e.Commit()

	if got := len(e.cur.ws.ents); got != logged+1 {
		t.Errorf("write set holds %d lines, want the %d logged ones", got, logged+1)
	}
	if got := e.cur.ws.val(at(0)); got&(wsLogged|wsLogFree|wsLazy) != wsLogged|wsLogFree {
		t.Errorf("mixed line's write-set classes %#x, want logged and log-free, not lazy", got)
	}
	var want []uint32
	for i := 1; i < lines; i++ {
		want = append(want, lazyEntry(at(i)))
	}
	if len(e.retained) != 1 {
		t.Fatalf("%d retained transactions, want 1", len(e.retained))
	}
	got := slices.Clone(e.retained[0].lazy)
	for i := range got {
		got[i] &^= lazyDone
	}
	if !slices.Equal(got, want) {
		t.Errorf("retained lazy list has %d entries, want the %d sorted unique lazy lines", len(got), len(want))
	}
	if m.Stats.LazyLinesDeferred != lines-1 {
		t.Errorf("LazyLinesDeferred = %d, want %d", m.Stats.LazyLinesDeferred, lines-1)
	}
}

// TestLazyLoggedRecordDiscard: a lazy+logged line still in cache at
// commit has its buffered undo record discarded (§III-B2).
func TestLazyLoggedRecordDiscard(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.StoreT, isa.LazyLogged)
	e.Commit()
	if m.Stats.LogRecordsDiscarded != 1 {
		t.Errorf("discarded = %d, want 1", m.Stats.LogRecordsDiscarded)
	}
	if m.Stats.LogRecordsPersisted != 0 {
		t.Errorf("discarded record reached PM")
	}
}

// TestTxIDRecycleForcesPersist: the fifth transaction reuses the first
// ID, forcing the first transaction's lazy data durable.
func TestTxIDRecycleForcesPersist(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 77, isa.StoreT, isa.LazyLogFree)
	e.Commit()
	for i := 0; i < NumTxIDs-1; i++ {
		e.Begin()
		e.Commit()
	}
	if m.PM.ReadU64(base) == 77 {
		t.Fatal("lazy data persisted too early")
	}
	e.Begin() // reuses ID 0
	e.Commit()
	if m.PM.ReadU64(base) != 77 {
		t.Error("ID recycle did not force the persist")
	}
	if m.Stats.TxIDRecycles == 0 {
		t.Error("recycle not counted")
	}
}

// TestAbortRestoresLoggedData: §V-B.
func TestAbortRestoresLoggedData(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.Commit()
	e.Begin()
	e.StoreU64(base, 2, isa.Store, isa.Plain)
	e.StoreU64(base+mem.LineSize, 3, isa.StoreT, isa.LogFree)
	e.Abort()
	if got := e.LoadU64(base); got != 1 {
		t.Errorf("volatile after abort = %d, want 1", got)
	}
	if m.PM.ReadU64(base) != 1 {
		t.Errorf("durable after abort = %d, want 1", m.PM.ReadU64(base))
	}
	// Log-free data is the application recovery's job; the engine
	// leaves it (here: still volatile or scribbled, but unreachable).
	if m.Stats.TxAborts != 1 {
		t.Error("abort not counted")
	}
}

// TestDuplicateLoggingAfterL3RoundTrip: §III-B1 — a line whose log bits
// were lost in L3 is re-logged on the next store.
func TestDuplicateLoggingAfterL3RoundTrip(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	// Push the line to L3 (same-set stride for both L1 and L2).
	for i := 1; i <= 20; i++ {
		e.LoadU64(base + mem.Addr(i)*64*1024)
	}
	if m.L1.Peek(base) != nil || m.L2.Peek(base) != nil {
		t.Fatal("line still in private caches")
	}
	e.StoreU64(base, 2, isa.Store, isa.Plain)
	if m.Stats.LogDuplicates != 1 {
		t.Errorf("duplicates = %d, want 1", m.Stats.LogDuplicates)
	}
	e.Commit()
}

// TestLogDuplicatesAfterL3RoundTrip: a record counts as a duplicate
// exactly when the transaction already created one for the same word
// (line, under line granularity) — which the write set's logged-word
// mask remembers after the cache log bits were lost in L3. Speculative
// records do not enter the mask.
func TestLogDuplicatesAfterL3RoundTrip(t *testing.T) {
	word := slpmtCfg()
	line := slpmtCfg()
	line.Granularity = Line
	spec := slpmtCfg()
	spec.Speculative = true
	cases := []struct {
		name          string
		cfg           Config
		before, after []int // words stored before and after the round trip
		records       uint64
		dups          uint64
		speculative   uint64
	}{
		{"word/same word", word, []int{0}, []int{0}, 2, 1, 0},
		{"word/other word", word, []int{0}, []int{1}, 2, 0, 0},
		{"line/re-logged line", line, []int{0}, []int{5}, 2, 1, 0},
		// Words 0-2 leave the low group partial, so the L1 demotion
		// logs word 3 speculatively; its re-log is not a duplicate.
		{"word/speculative", spec, []int{0, 1, 2}, []int{3}, 4, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, m := newEng(c.cfg)
			base := m.Layout.HeapBase
			e.Begin()
			for _, w := range c.before {
				e.StoreU64(base+mem.Addr(w*mem.WordSize), 1, isa.Store, isa.Plain)
			}
			// Push the line to L3 (same-set stride for both L1 and L2).
			for i := 1; i <= 20; i++ {
				e.LoadU64(base + mem.Addr(i)*64*1024)
			}
			if m.L1.Peek(base) != nil || m.L2.Peek(base) != nil {
				t.Fatal("line still in private caches")
			}
			for _, w := range c.after {
				e.StoreU64(base+mem.Addr(w*mem.WordSize), 2, isa.Store, isa.Plain)
			}
			s := m.Stats
			if s.LogRecordsCreated != c.records || s.LogDuplicates != c.dups || s.SpeculativeRecords != c.speculative {
				t.Errorf("records/duplicates/speculative = %d/%d/%d, want %d/%d/%d",
					s.LogRecordsCreated, s.LogDuplicates, s.SpeculativeRecords, c.records, c.dups, c.speculative)
			}
			e.Commit()
		})
	}
}

// TestSpeculativeLogging: with the §III-B1 optimization, evicting a
// partially logged 32-byte group creates speculative records so the
// folded bit survives.
func TestSpeculativeLogging(t *testing.T) {
	cfg := slpmtCfg()
	cfg.Speculative = true
	e, m := newEng(cfg)
	base := m.Layout.HeapBase
	e.Begin()
	// Log 3 of the 4 words of the low group.
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.StoreU64(base+8, 2, isa.Store, isa.Plain)
	e.StoreU64(base+16, 3, isa.Store, isa.Plain)
	// Evict from L1 (8 conflicting lines).
	for i := 1; i <= 8; i++ {
		e.LoadU64(base + mem.Addr(i)*64*64)
	}
	if m.Stats.SpeculativeRecords != 1 {
		t.Errorf("speculative records = %d, want 1", m.Stats.SpeculativeRecords)
	}
	l2 := m.L2.Peek(base)
	if l2 == nil || l2.LogBits&0x01 == 0 {
		t.Error("folded log bit lost despite speculation")
	}
	e.Commit()
}

// TestRedoCommitOrdering: under redo logging, a crash before the commit
// record leaves old durable values; after it, recovery replay yields
// the new ones.
func TestRedoDurability(t *testing.T) {
	cfg := slpmtCfg()
	cfg.Mode = Redo
	e, m := newEng(cfg)
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.Commit()

	e.Begin()
	e.StoreU64(base, 2, isa.Store, isa.Plain)
	// Mid-transaction: durable value must still be old.
	if m.PM.ReadU64(base) != 1 {
		t.Fatalf("redo leaked new value before commit")
	}
	e.Commit()
	if m.PM.ReadU64(base) != 2 {
		t.Fatal("redo commit did not persist new value")
	}
	// The redo log records the final values for replay.
	raw := make([]byte, 4096)
	m.PM.Read(m.Layout.LogBase, raw)
	hdr := logfmt.DecodeHeader(raw)
	if hdr.State != logfmt.StateCommitted || hdr.Mode != logfmt.ModeRedo {
		t.Fatalf("header %+v", hdr)
	}
	recs, err := logfmt.ParseRecords(raw, hdr.Seq)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Addr == base && len(r.Data) >= 8 && r.Data[0] == 2 {
			found = true
		}
	}
	if !found {
		t.Error("redo log missing final value record")
	}
}

// TestNonTransactionalStoreChecksConflicts: stores outside transactions
// still trigger lazy-persistency enforcement (§III-C).
func TestNonTransactionalStore(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 5, isa.StoreT, isa.LazyLogFree)
	e.Commit()
	e.StoreU64(base, 6, isa.Store, isa.Plain) // outside txn, same line
	if m.PM.ReadU64(base) != 5 {
		t.Error("lazy line not forced durable before the overwrite")
	}
	if got := e.LoadU64(base); got != 6 {
		t.Errorf("volatile = %d, want 6", got)
	}
}

// TestUndoOrderingUnderCrash crashes an undo transaction that rewrites
// four lines at every persist event, applies the image's log the way
// recovery does, and requires the old values (100-103) before the
// commit marker and the new ones (200-203) after it.
func TestUndoOrderingUnderCrash(t *testing.T) {
	run := func(crashAt uint64) (img *pmem.Image, seq, total uint64) {
		e, m := newEng(slpmtCfg())
		base := m.Layout.HeapBase
		// Committed baseline.
		e.Begin()
		for i := 0; i < 4; i++ {
			e.StoreU64(base+mem.Addr(i)*mem.LineSize, 100+uint64(i), isa.Store, isa.Plain)
		}
		e.Commit()
		startEvents := m.Machine().PersistTotal
		m.Machine().CrashAfterTotal = startEvents + crashAt
		seq = e.Seq() + 1 // the transaction the crash interrupts

		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*machine.CrashSignal); !ok {
						panic(r)
					}
				}
			}()
			e.Begin()
			for i := 0; i < 4; i++ {
				e.StoreU64(base+mem.Addr(i)*mem.LineSize, 200+uint64(i), isa.Store, isa.Plain)
			}
			e.Commit()
		}()
		return m.Machine().Crash(), seq, m.Machine().PersistTotal - startEvents
	}

	_, _, total := run(1 << 30)
	base := mem.DefaultLayout(pmem.DefaultSize).HeapBase
	for pt := uint64(1); pt <= total; pt++ {
		img, seq, _ := run(pt)
		want := uint64(100)
		if payloadRecover(t, img, seq) {
			want = 200
		}
		for i := uint64(0); i < 4; i++ {
			if got := img.ReadU64(base + i*mem.LineSize); got != want+i {
				t.Fatalf("crash@%d/%d: word %d = %d after recovery, want %d", pt, total, i, got, want+i)
			}
		}
	}
}

// TestContextSwitch (§V-C): a switch mid-transaction drains the log
// buffer; the transaction resumes and commits normally, and a crash
// right after the switch is recoverable because the records are
// durable.
func TestContextSwitch(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	buffered := len(e.sink.buffered())
	if buffered == 0 {
		t.Fatal("expected a buffered record before the switch")
	}
	e.ContextSwitch()
	if len(e.sink.buffered()) != 0 {
		t.Error("context switch did not drain the log buffer")
	}
	if m.Stats.LogRecordsPersisted == 0 {
		t.Error("drained records did not reach PM")
	}
	// The transaction resumes: more stores, then a normal commit.
	e.StoreU64(base+8, 2, isa.Store, isa.Plain)
	e.Commit()
	if m.PM.ReadU64(base) != 1 || m.PM.ReadU64(base+8) != 2 {
		t.Error("post-switch commit not durable")
	}
	// And the lazy machinery survived the switch.
	e.Begin()
	e.StoreU64(base+mem.LineSize, 9, isa.StoreT, isa.LazyLogFree)
	e.ContextSwitch()
	e.Commit()
	if e.RetainedLazyLines() != 1 {
		t.Error("lazy tracking lost across context switch")
	}
	e.DrainLazy()
}

// TestIncorrectLogFreeAnnotation (§IV-A): wrongly marking a store
// log-free undermines recoverability only within its own transaction —
// "such threats do not span across transaction commits." Before commit,
// the un-logged overwrite cannot be reverted; once the transaction
// commits, subsequent transactions log the line normally again.
func TestIncorrectLogFreeAnnotation(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.Commit()

	// A later transaction incorrectly marks an overwrite log-free...
	e.Begin()
	e.StoreU64(base, 2, isa.StoreT, isa.LogFree)
	before := m.Stats.LogRecordsCreated
	e.Commit()
	if m.Stats.LogRecordsCreated != before {
		t.Error("log-free store created a record")
	}
	// ...but the damage ends at its commit: the NEXT transaction's
	// store to the same word is logged and fully revertible.
	e.Begin()
	e.StoreU64(base, 3, isa.Store, isa.Plain)
	e.Abort()
	if got := e.LoadU64(base); got != 2 {
		t.Errorf("post-abort value = %d, want 2 (the committed value)", got)
	}
	if m.PM.ReadU64(base) != 2 {
		t.Errorf("durable = %d, want 2", m.PM.ReadU64(base))
	}
}

// TestIncorrectLazyAnnotation (§IV-A): wrongly marking a store lazy
// never hurts recoverability — only freshness. A crash after commit may
// lose the up-to-date value, reverting to the last durable one; a crash
// during the transaction is fully handled by the undo log.
func TestIncorrectLazyAnnotation(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.Commit()

	e.Begin()
	e.StoreU64(base, 2, isa.StoreT, isa.LazyLogged) // "incorrectly" lazy
	e.Commit()
	// Crash now: the line is volatile; the durable image holds the OLD
	// committed value — stale but consistent.
	img := m.Crash()
	if got := img.ReadU64(base); got != 1 {
		t.Errorf("crash image = %d, want the stale-but-consistent 1", got)
	}
	// Without a crash, the hardware eventually persists it.
	e.DrainLazy()
	if m.PM.ReadU64(base) != 2 {
		t.Error("lazy value never became durable")
	}
}

// TestCommitStreamAllocFree pins the steady-state commit path at zero
// allocations: once a 4,096-line transaction has grown the line sets
// and walk buffers, a stream of transactions (an eager store and a lazy
// storeT each) allocates nothing, whether the lazy lines drain through
// transaction-ID recycling or through DrainLazy, which recycles their
// lists.
func TestCommitStreamAllocFree(t *testing.T) {
	for _, mode := range []LogMode{Undo, Redo} {
		for _, w := range []int{1, 16} {
			cfg := slpmtCfg()
			cfg.Mode, cfg.CommitWindow = mode, w
			t.Run(fmt.Sprintf("%v/W%d", mode, w), func(t *testing.T) {
				e, m := newEng(cfg)
				base := m.Layout.HeapBase
				e.Begin()
				for i := 0; i < 4096; i++ {
					e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
				}
				e.Commit()
				i := 0
				stream := func() {
					for n := 0; n < 64; n++ {
						e.Begin()
						e.StoreU64(base+mem.Addr(i%64)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
						e.StoreU64(base+mem.Addr(64+i%64)*mem.LineSize, uint64(i), isa.StoreT, isa.LazyLogFree)
						e.Commit()
						i++
					}
					e.DrainLazy()
				}
				stream() // brings the lazy-list pool to its working size
				if n := testing.AllocsPerRun(20, stream); n != 0 {
					t.Errorf("%v allocations per 64-transaction stream, want 0", n)
				}
				if e.m.Stats.LazyLinesDeferred == 0 {
					t.Error("no lazy line was deferred")
				}
			})
		}
	}
}

// TestDataPersistsInAddressOrder pins the persist order the address
// sorts keep. Two transactions store their lines in descending order,
// the second below the first, with line i written with attrs[i%3]
// (logged, log-free, lazy). Every walk that persists data lines — a
// redo commit's log-free and logged stages, the epoch close's, the lazy
// drain of each retained transaction — must reach the WPQ in ascending
// address order. (The undo flush walks in cache-scan order, which is
// address order for these lines.)
func TestDataPersistsInAddressOrder(t *testing.T) {
	attrs := []isa.Attr{isa.Plain, isa.LogFree, isa.LazyLogFree}
	// Line i's class bit is 1<<(i%3).
	const logged, logFree, lazy, eager = 1, 2, 4, 1 | 2
	// walk returns, in ascending order, the lines of the given
	// transactions (0: lines 16..31, 1: lines 0..15) whose class is in
	// classes.
	walk := func(classes int, txns ...int) []int {
		var out []int
		for i := 0; i < 32; i++ {
			if classes&(1<<(i%3)) != 0 && slices.Contains(txns, 1-i/16) {
				out = append(out, i)
			}
		}
		return out
	}
	drains := [][]int{walk(lazy, 0), walk(lazy, 1)}
	for _, tc := range []struct {
		mode  LogMode
		w     int
		walks [][]int
	}{
		{Undo, 1, append([][]int{walk(eager, 0), walk(eager, 1)}, drains...)},
		{Undo, 4, append([][]int{walk(eager, 0, 1)}, drains...)},
		{Redo, 1, append([][]int{walk(logFree, 0), walk(logged, 0), walk(logFree, 1), walk(logged, 1)}, drains...)},
		{Redo, 4, append([][]int{walk(logFree, 0, 1), walk(logged, 0, 1)}, drains...)},
	} {
		cfg := slpmtCfg()
		cfg.Mode, cfg.CommitWindow = tc.mode, tc.w
		t.Run(fmt.Sprintf("%v/W%d", tc.mode, tc.w), func(t *testing.T) {
			tr := trace.New(1 << 16)
			tr.SetMask(trace.Mask(trace.KWPQEnqueue))
			m := machine.New(machine.Config{Trace: tr}).Core(0)
			e := New(m, cfg)
			base := m.Layout.HeapBase
			for _, first := range []int{16, 0} {
				e.Begin()
				for i := first + 15; i >= first; i-- {
					e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i), isa.StoreT, attrs[i%len(attrs)])
				}
				e.Commit()
			}
			e.FinishEpoch()
			e.DrainLazy()
			var got, want []mem.Addr
			for _, ev := range tr.Events() {
				if m.Layout.InHeap(ev.Addr, mem.LineSize) {
					got = append(got, ev.Addr)
				}
			}
			for _, w := range tc.walks {
				for _, i := range w {
					want = append(want, base+mem.Addr(i)*mem.LineSize)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("heap lines reach the WPQ as\n%#x\nwant\n%#x", got, want)
			}
		})
	}
}

// TestConfigValidate: Validate accepts every scheme-shaped
// configuration and rejects the combinations no design models,
// including redo logging through the direct log path, whose records
// would carry the old values.
func TestConfigValidate(t *testing.T) {
	direct := fgCfg()
	direct.Buffer = BufferDirect
	directRedo := direct
	directRedo.Mode = Redo
	lineSpec := slpmtCfg()
	lineSpec.Granularity = Line
	lineSpec.Speculative = true
	negWindow := slpmtCfg()
	negWindow.CommitWindow = -1
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"SLPMT", slpmtCfg(), true},
		{"FG", fgCfg(), true},
		{"direct-undo", direct, true},
		{"direct-redo", directRedo, false},
		{"line-speculative", lineSpec, false},
		{"negative-window", negWindow, false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
