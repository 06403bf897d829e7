package engine

import (
	"reflect"
	"testing"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
)

func windowCfg(w int) Config {
	c := slpmtCfg()
	c.CommitWindow = w
	return c
}

func readHeader(m *machine.Core) logfmt.Header {
	raw := make([]byte, 256)
	m.PM.Read(m.Layout.LogBase, raw)
	return logfmt.DecodeHeader(raw)
}

// TestEpochBatchesCloses: with W=4, eight committed transactions close
// exactly two epochs, and committed data stays volatile until its
// window's close.
func TestEpochBatchesCloses(t *testing.T) {
	e, m := newEng(windowCfg(4))
	base := m.Layout.HeapBase
	for i := 0; i < 3; i++ {
		e.Begin()
		e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i+1), isa.Store, isa.Plain)
		e.Commit()
	}
	if m.Stats.EpochCloses != 0 {
		t.Fatalf("epoch closed after 3/4 transactions (%d closes)", m.Stats.EpochCloses)
	}
	if m.PM.ReadU64(base) == 1 {
		t.Error("committed data durable before the epoch close")
	}
	e.Begin()
	e.StoreU64(base+3*mem.LineSize, 4, isa.Store, isa.Plain)
	e.Commit() // 4th commit fills the window
	if m.Stats.EpochCloses != 1 {
		t.Fatalf("window fill closed %d epochs, want 1", m.Stats.EpochCloses)
	}
	for i := 0; i < 4; i++ {
		if got := m.PM.ReadU64(base + mem.Addr(i)*mem.LineSize); got != uint64(i+1) {
			t.Errorf("line %d durable value %d, want %d", i, got, i+1)
		}
	}
	hdr := readHeader(m)
	if hdr.State != logfmt.StateCommitted {
		t.Errorf("header state %d, want committed", hdr.State)
	}
	if hdr.CommittedTo != hdr.Watermark || hdr.CommittedTo < logfmt.RecordsStart {
		t.Errorf("CommittedTo %d / Watermark %d: closed epoch must commit the whole stream", hdr.CommittedTo, hdr.Watermark)
	}
	if hdr.Epoch != 1 {
		t.Errorf("header epoch %d, want 1", hdr.Epoch)
	}
	for i := 4; i < 8; i++ {
		e.Begin()
		e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i+1), isa.Store, isa.Plain)
		e.Commit()
	}
	if m.Stats.EpochCloses != 2 {
		t.Errorf("8 transactions closed %d epochs, want 2", m.Stats.EpochCloses)
	}
	if hdr := readHeader(m); hdr.Epoch != 2 {
		t.Errorf("header epoch %d after second close, want 2", hdr.Epoch)
	}
}

// TestEpochBoundaryRecords: every grouped transaction opens with a
// boundary record carrying its sequence number.
func TestEpochBoundaryRecords(t *testing.T) {
	e, m := newEng(windowCfg(3))
	base := m.Layout.HeapBase
	for i := 0; i < 3; i++ {
		e.Begin()
		e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i+1), isa.Store, isa.Plain)
		e.Commit()
	}
	raw := make([]byte, m.Layout.LogSize)
	m.PM.Read(m.Layout.LogBase, raw)
	hdr := logfmt.DecodeHeader(raw)
	recs, err := logfmt.ParseRegion(raw, logfmt.RecordsStart, hdr.Watermark)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, r := range recs {
		if logfmt.IsBoundary(r) {
			seqs = append(seqs, logfmt.BoundarySeq(r))
		}
	}
	if len(seqs) != 3 {
		t.Fatalf("%d boundary records, want 3 (records: %d)", len(seqs), len(recs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Errorf("boundary sequences not consecutive: %v", seqs)
		}
	}
}

// TestEpochForcedCloseMidTxn: a forced close with a transaction in
// flight commits the window's prefix and reopens the stream around the
// running transaction under a fresh epoch number.
func TestEpochForcedCloseMidTxn(t *testing.T) {
	e, m := newEng(windowCfg(8))
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 11, isa.Store, isa.Plain)
	e.Commit()
	e.Begin()
	e.StoreU64(base+mem.LineSize, 22, isa.Store, isa.Plain)
	e.FinishEpoch() // forced close, txn 2 still running
	if m.Stats.EpochCloses != 1 {
		t.Fatalf("forced close closed %d epochs, want 1", m.Stats.EpochCloses)
	}
	if got := m.PM.ReadU64(base); got != 11 {
		t.Errorf("committed prefix not durable after forced close (got %d)", got)
	}
	hdr := readHeader(m)
	if hdr.State != logfmt.StateActive {
		t.Errorf("header state %d, want active (reopened around running txn)", hdr.State)
	}
	if hdr.Epoch != 2 {
		t.Errorf("header epoch %d, want 2 after reopen", hdr.Epoch)
	}
	if hdr.CommittedTo >= hdr.Watermark {
		t.Errorf("CommittedTo %d >= Watermark %d: running txn's records must stay open", hdr.CommittedTo, hdr.Watermark)
	}
	e.Commit()
	e.FinishEpoch()
	if got := m.PM.ReadU64(base + mem.LineSize); got != 22 {
		t.Errorf("txn 2 not durable after its own close (got %d)", got)
	}
	if hdr := readHeader(m); hdr.State != logfmt.StateCommitted {
		t.Errorf("final header state %d, want committed", hdr.State)
	}
}

// TestEpochAbortMidWindow: aborting inside an open window reverts only
// the aborting transaction; the window's committed prefix survives to
// the close.
func TestEpochAbortMidWindow(t *testing.T) {
	for _, mode := range []LogMode{Undo, Redo} {
		cfg := windowCfg(4)
		cfg.Mode = mode
		e, m := newEng(cfg)
		base := m.Layout.HeapBase
		e.Begin()
		e.StoreU64(base, 11, isa.Store, isa.Plain)
		e.Commit()
		e.Begin()
		e.StoreU64(base, 99, isa.Store, isa.Plain)
		e.StoreU64(base+mem.LineSize, 99, isa.Store, isa.Plain)
		e.Abort()
		if got := e.LoadU64(base); got != 11 {
			t.Errorf("mode %v: abort left volatile value %d, want 11", mode, got)
		}
		e.FinishEpoch()
		if got := m.PM.ReadU64(base); got != 11 {
			t.Errorf("mode %v: durable value %d after close, want 11", mode, got)
		}
		if got := m.PM.ReadU64(base + mem.LineSize); got == 99 {
			t.Errorf("mode %v: aborted store leaked to PM", mode)
		}
	}
}

// TestEpochCycleBudget: the budget bounds commit-to-durability latency
// by force-closing at the first commit past the deadline.
func TestEpochCycleBudget(t *testing.T) {
	cfg := windowCfg(1 << 20) // window never fills on its own
	cfg.EpochCycleBudget = 1  // every commit is past the deadline
	e, m := newEng(cfg)
	base := m.Layout.HeapBase
	for i := 0; i < 3; i++ {
		e.Begin()
		e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i+1), isa.Store, isa.Plain)
		e.Commit()
	}
	if m.Stats.EpochCloses != 3 {
		t.Errorf("cycle budget closed %d epochs over 3 commits, want 3", m.Stats.EpochCloses)
	}
	if got := m.PM.ReadU64(base + 2*mem.LineSize); got != 3 {
		t.Errorf("budget-closed data not durable (got %d)", got)
	}
}

// TestEpochW1MatchesPerTxn: CommitWindow=1 must be indistinguishable
// from the per-transaction protocol — same cycles, same persist
// counts, same durable bytes.
func TestEpochW1MatchesPerTxn(t *testing.T) {
	run := func(cfg Config) (*Engine, *machine.Core) {
		e, m := newEng(cfg)
		base := m.Layout.HeapBase
		for i := 0; i < 6; i++ {
			e.Begin()
			e.StoreU64(base+mem.Addr(i%3)*mem.LineSize, uint64(i+1), isa.Store, isa.Plain)
			e.StoreU64(base+8*mem.LineSize, uint64(i), isa.StoreT, isa.LogFree)
			e.Commit()
		}
		return e, m
	}
	_, m0 := run(slpmtCfg())
	_, m1 := run(windowCfg(1))
	if m0.Clk != m1.Clk {
		t.Errorf("W=1 clock %d != per-txn clock %d", m1.Clk, m0.Clk)
	}
	if m0.Machine().PersistTotal != m1.Machine().PersistTotal {
		t.Errorf("W=1 persists %d != per-txn persists %d", m1.Machine().PersistTotal, m0.Machine().PersistTotal)
	}
	if !reflect.DeepEqual(m0.Stats, m1.Stats) {
		t.Errorf("W=1 stats differ:\n  per-txn: %+v\n  W=1:     %+v", m0.Stats, m1.Stats)
	}
	a, b := m0.Crash(), m1.Crash()
	if a.Size() != b.Size() {
		t.Fatal("image sizes differ")
	}
	da, db := make([]byte, a.Size()), make([]byte, b.Size())
	a.Read(0, da)
	b.Read(0, db)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("durable images differ at byte %#x", i)
		}
	}
}
