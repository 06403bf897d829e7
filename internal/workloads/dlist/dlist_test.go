package dlist

import (
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/workloads"
)

// TestFigureOneLoggingProfile: an insert into a non-empty list creates
// exactly one undo record (the head/predecessor link) — the paper's
// Figure 1 claim.
func TestFigureOneLoggingProfile(t *testing.T) {
	l := New()
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
	if err := l.Setup(sys); err != nil {
		t.Fatal(err)
	}
	// 32-byte values make each node exactly one cache line, so nodes do
	// not share lines (line sharing would cancel the lazy prev-pointer
	// update via the sticky persist bit — the same effect the paper
	// describes for the rbtree's color field).
	val := []byte("0123456789abcdef0123456789abcdef")
	if err := l.Insert(sys, 1, val); err != nil {
		t.Fatal(err)
	}
	before := sys.Stats().LogRecordsCreated
	if err := l.Insert(sys, 2, val); err != nil {
		t.Fatal(err)
	}
	recs := sys.Stats().LogRecordsCreated - before
	// One for the head root slot, one for the count root slot (same
	// root line, different words).
	if recs > 2 {
		t.Errorf("insert created %d undo records, want <= 2", recs)
	}
	// The successor's prev pointer was deferred (lazy + log-free).
	if sys.Stats().LazyLinesDeferred == 0 {
		t.Error("prev-pointer update was not lazy")
	}
}

// TestPrevRebuiltAfterCorruption: the Figure 1(d) fix-up restores every
// prev pointer from the next chain.
func TestPrevRebuiltAfterCorruption(t *testing.T) {
	l := New()
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
	if err := l.Setup(sys); err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]byte{}
	for k := uint64(1); k <= 20; k++ {
		v := []byte("vvvvvvvv")
		if err := l.Insert(sys, k, v); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	sys.DrainLazy()
	img := sys.Mach.Crash()
	// Corrupt every prev pointer.
	n := workloads.ReadRoot(img, workloads.RootMain)
	for n != 0 {
		img.WriteU64(n+offPrev, 0xdeadbeef)
		n = img.ReadU64(n + offNext)
	}
	if err := l.Recover(img); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckDurable(img, oracle); err != nil {
		t.Fatalf("fix-up failed: %v", err)
	}
}

// TestDeleteUnlinksWithOneLoggedStore: deletes are as log-light as
// inserts.
func TestDeleteUnlinksWithOneLoggedStore(t *testing.T) {
	l := New()
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
	if err := l.Setup(sys); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 3; k++ {
		if err := l.Insert(sys, k, []byte("vvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.Stats().LogRecordsCreated
	if err := l.Delete(sys, 2); err != nil { // middle node
		t.Fatal(err)
	}
	recs := sys.Stats().LogRecordsCreated - before
	if recs > 2 { // pred.next + count
		t.Errorf("delete created %d undo records, want <= 2", recs)
	}
	if err := l.Check(sys, map[uint64][]byte{1: []byte("vvvvvvvv"), 3: []byte("vvvvvvvv")}); err != nil {
		t.Fatal(err)
	}
}
