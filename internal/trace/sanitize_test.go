package trace

import (
	"strings"
	"testing"
)

// sanitize replays events oldest-first through a fresh Sanitizer.
func sanitize(events []Event) *Report {
	z := NewSanitizer()
	for _, e := range events {
		z.Consume(e)
	}
	return z.Report()
}

// ev builds one event; tests assemble streams in emission order.
func ev(core uint8, cycle uint64, kind Kind, addr, arg uint64) Event {
	return Event{Cycle: cycle, Addr: addr, Arg: arg, Kind: kind, Core: core}
}

func wantClean(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.Clean() {
		t.Fatalf("expected clean report, got %d violations: %v", rep.Total, rep.Violations)
	}
}

func wantViolation(t *testing.T, rep *Report, rule, detail string) {
	t.Helper()
	if rep.Total != 1 {
		t.Fatalf("expected exactly 1 violation, got %d: %v", rep.Total, rep.Violations)
	}
	v := rep.Violations[0]
	if v.Rule != rule {
		t.Fatalf("expected rule %q, got %q (%s)", rule, v.Rule, v)
	}
	if detail != "" && !strings.Contains(v.Detail, detail) {
		t.Fatalf("expected detail containing %q, got %q", detail, v.Detail)
	}
}

// cleanUndoTx is a minimal well-ordered undo transaction on core 0:
// store -> log record persisted -> sync -> data line persists -> marker.
func cleanUndoTx() []Event {
	return []Event{
		ev(0, 10, KTxBegin, 0, 1),
		ev(0, 20, KStore, 0x1008, 8),
		ev(0, 21, KLogAppend, 0x1008, 8),
		ev(0, 22, KLogPersist, 0x1008, 80),
		ev(0, 30, KCommitStart, 0, 1),
		ev(0, 31, KLogSync, 0x8000, 80),
		ev(0, 40, KWPQEnqueue, 0x1000, 64),
		ev(0, 45, KCommitMarker, 0, 1),
		ev(0, 50, KTxCommit, 0, 1),
	}
}

func TestSanitizeCleanUndoCommit(t *testing.T) {
	rep := sanitize(cleanUndoTx())
	wantClean(t, rep)
	if rep.Transactions != 1 || rep.Aborts != 0 {
		t.Fatalf("expected 1 commit / 0 aborts, got %d / %d", rep.Transactions, rep.Aborts)
	}
}

func TestSanitizeLogBeforeData(t *testing.T) {
	// The data line enters the WPQ before any sync covers its record.
	rep := sanitize([]Event{
		ev(0, 10, KTxBegin, 0, 1),
		ev(0, 20, KStore, 0x1008, 8),
		ev(0, 21, KLogAppend, 0x1008, 8),
		ev(0, 22, KLogPersist, 0x1008, 80),
		ev(0, 30, KWPQEnqueue, 0x1000, 64), // no KLogSync yet
		ev(0, 31, KLogSync, 0x8000, 80),
		ev(0, 40, KCommitMarker, 0, 1),
		ev(0, 50, KTxCommit, 0, 1),
	})
	wantViolation(t, rep, "log-before-data", "beyond the durable watermark")
}

func TestSanitizeMarkerBeforeLogSync(t *testing.T) {
	// The commit marker is written while records are beyond the watermark.
	rep := sanitize([]Event{
		ev(0, 10, KTxBegin, 0, 1),
		ev(0, 20, KStore, 0x1008, 8),
		ev(0, 21, KLogAppend, 0x1008, 8),
		ev(0, 22, KLogPersist, 0x1008, 80),
		ev(0, 40, KCommitMarker, 0, 1), // no KLogSync before the marker
		ev(0, 50, KTxCommit, 0, 1),
	})
	wantViolation(t, rep, "marker-order", "beyond the durable watermark")
}

func TestSanitizeUndoDataAfterMarker(t *testing.T) {
	// Undo mode: a write-set line persists after the commit marker.
	rep := sanitize([]Event{
		ev(0, 10, KTxBegin, 0, 1),
		ev(0, 20, KStore, 0x1008, 8),
		ev(0, 21, KLogAppend, 0x1008, 8),
		ev(0, 22, KLogPersist, 0x1008, 80),
		ev(0, 31, KLogSync, 0x8000, 80),
		ev(0, 45, KCommitMarker, 0, 1),
		ev(0, 46, KWPQEnqueue, 0x1000, 64), // Figure 4: marker must be last
		ev(0, 50, KTxCommit, 0, 1),
	})
	wantViolation(t, rep, "marker-order", "after the commit marker")
}

func TestSanitizeRedoLoggedBeforeMarker(t *testing.T) {
	// Redo mode (mode learned from tx 1's marker): tx 2 persists a
	// logged line before its commit marker.
	evs := []Event{
		// tx 1: clean redo commit establishes lastMode = redo.
		ev(0, 10, KTxBegin, 0, 1),
		ev(0, 20, KStore, 0x1008, 8),
		ev(0, 21, KLogAppend, 0x1008, 8),
		ev(0, 22, KLogPersist, 0x1008, 80),
		ev(0, 31, KLogSync, 0x8000, 80),
		ev(0, 45, KCommitMarker, 1, 1),
		ev(0, 46, KWPQEnqueue, 0x1000, 64), // logged data after marker: correct for redo
		ev(0, 50, KTxCommit, 0, 1),
		// tx 2: logged line persists before the marker.
		ev(0, 60, KTxBegin, 0, 2),
		ev(0, 70, KStore, 0x2008, 8),
		ev(0, 71, KLogAppend, 0x2008, 8),
		ev(0, 72, KLogPersist, 0x2008, 80),
		ev(0, 73, KLogSync, 0x8000, 80),
		ev(0, 74, KWPQEnqueue, 0x2000, 128), // before the marker: violation
		ev(0, 80, KCommitMarker, 1, 2),
		ev(0, 90, KTxCommit, 0, 2),
	}
	rep := sanitize(evs)
	wantViolation(t, rep, "marker-order", "before the commit marker")
}

func TestSanitizeAbortDropsTxViolations(t *testing.T) {
	// Same mis-ordered stream as TestSanitizeLogBeforeData, but the
	// transaction aborts: the abort path legitimately rewrites logged
	// data outside the commit ordering, so buffered violations drop.
	rep := sanitize([]Event{
		ev(0, 10, KTxBegin, 0, 1),
		ev(0, 20, KStore, 0x1008, 8),
		ev(0, 21, KLogAppend, 0x1008, 8),
		ev(0, 22, KLogPersist, 0x1008, 80),
		ev(0, 30, KWPQEnqueue, 0x1000, 64),
		ev(0, 50, KTxAbort, 0, 1),
	})
	wantClean(t, rep)
	if rep.Aborts != 1 {
		t.Fatalf("expected 1 abort, got %d", rep.Aborts)
	}
}

func TestSanitizeWPQDrainRegression(t *testing.T) {
	// Two drains in one batch with retirement cycles going backwards.
	rep := sanitize([]Event{
		ev(0, 100, KWPQDrain, 0, 64),
		ev(0, 90, KWPQDrain, 0, 0),
	})
	wantViolation(t, rep, "wpq-fifo", "same batch")
}

func TestSanitizeWPQDrainSizeMismatch(t *testing.T) {
	rep := sanitize([]Event{
		ev(0, 10, KWPQEnqueue, 0x1000, 64),  // baseline lock-on
		ev(0, 20, KWPQEnqueue, 0x2000, 128), // outstanding: 64
		ev(0, 30, KWPQDrain, 0, 64),         // matches, core synced
		ev(0, 40, KWPQEnqueue, 0x3000, 128), // outstanding: 64
		ev(0, 50, KWPQDrain, 0, 96),         // 32 bytes never enqueued
	})
	wantViolation(t, rep, "wpq-fifo", "no matching outstanding enqueue")
}

// TestSanitizeWPQFirstEnqueueDrains: a socket's first enqueue only
// sets the occupancy baseline, but its drain must still retire it, not
// a later entry of the same line and size, whose own drain would then
// find nothing outstanding.
func TestSanitizeWPQFirstEnqueueDrains(t *testing.T) {
	wantClean(t, sanitize([]Event{
		ev(0, 10, KWPQEnqueue, 0x1000, 64),  // baseline: size unknown
		ev(0, 20, KWPQEnqueue, 0x1000, 128), // outstanding: 64
		ev(0, 30, KWPQDrain, 0x1000, 64),    // the first entry retires
		ev(0, 40, KWPQEnqueue, 0x2000, 128), // outstanding: 64
		ev(0, 50, KWPQDrain, 0x1000, 64),    // the second one retires
		ev(0, 60, KWPQDrain, 0x2000, 0),
	}))
}

func TestSanitizeWPQEnqueueNoRaise(t *testing.T) {
	rep := sanitize([]Event{
		ev(0, 10, KWPQEnqueue, 0x1000, 64),
		ev(0, 20, KWPQEnqueue, 0x2000, 64), // occupancy did not grow
	})
	wantViolation(t, rep, "wpq-fifo", "did not raise")
}

func TestSanitizeLazyConflict(t *testing.T) {
	base := []Event{
		// Core 0 commits with line 0x1000 left volatile (retained).
		ev(0, 10, KTxBegin, 0, 1),
		ev(0, 20, KStoreT, 0x1000, 8),
		ev(0, 30, KCommitStart, 0, 1),
		ev(0, 35, KLazyDefer, 0x1000, 1),
		ev(0, 40, KTxCommit, 0, 1),
		// Core 1 stores to the retained line.
		ev(1, 50, KStore, 0x1000, 8),
	}
	// Violating stream: core 1 proceeds without core 0 draining.
	bad := append(append([]Event{}, base...),
		ev(1, 60, KStore, 0x2000, 8),
	)
	wantViolation(t, sanitize(bad), "lazy-conflict", "still volatile")

	// Clean stream: the conflict forces core 0's drain before core 1's
	// next program event (as the engine does, synchronously).
	good := append(append([]Event{}, base...),
		ev(0, 55, KLazyDrainStart, 0, 1),
		ev(0, 56, KWPQEnqueue, 0x1000, 64),
		ev(0, 58, KLazyDrainEnd, 0, 1),
		ev(1, 60, KStore, 0x2000, 8),
	)
	wantClean(t, sanitize(good))
}

// groupedTxs is two grouped commits (no per-transaction marker or sync)
// on core 0 — the open-epoch prefix shared by the epoch tests.
func groupedTxs() []Event {
	return []Event{
		ev(0, 10, KTxBegin, 0, 1),
		ev(0, 20, KStore, 0x1008, 8),
		ev(0, 21, KLogAppend, 0x1008, 8),
		ev(0, 22, KLogPersist, 0x1008, 80),
		ev(0, 30, KTxCommit, 0, 1), // no marker: joins the epoch
		ev(0, 40, KTxBegin, 0, 2),
		ev(0, 50, KStore, 0x2008, 8),
		ev(0, 51, KLogAppend, 0x2008, 8),
		ev(0, 52, KLogPersist, 0x2008, 120),
		ev(0, 60, KTxCommit, 0, 2),
	}
}

func TestSanitizeEpochCleanGroupCommit(t *testing.T) {
	// Well-ordered epoch close: sync covering every record, then the
	// marker, then the data persists, then the close event.
	evs := append(groupedTxs(),
		ev(0, 70, KLogSync, 0x8000, 120),
		ev(0, 71, KCommitMarker, 0, 2),
		ev(0, 72, KWPQEnqueue, 0x1000, 64),
		ev(0, 73, KWPQEnqueue, 0x2000, 128),
		ev(0, 74, KEpochClose, 0, 1),
	)
	rep := sanitize(evs)
	wantClean(t, rep)
	if rep.Transactions != 2 {
		t.Fatalf("expected 2 commits, got %d", rep.Transactions)
	}
}

func TestSanitizeEpochCloseBeyondWatermark(t *testing.T) {
	// The epoch closes while tx 2's record (end offset 120) is beyond
	// the synced watermark (80): recovery could tear the epoch.
	evs := append(groupedTxs(),
		ev(0, 70, KLogSync, 0x8000, 80), // covers tx 1 only
		ev(0, 71, KCommitMarker, 0, 2),
		ev(0, 74, KEpochClose, 0, 1),
	)
	wantViolation(t, sanitize(evs), "epoch-close", "closed with log records")
	if v := sanitize(evs).Violations[0]; v.Seq != 1 {
		t.Fatalf("expected epoch number 1 in Seq, got %d", v.Seq)
	}
}

func TestSanitizeEpochLinePersistBeforeSync(t *testing.T) {
	// A line logged by a committed-in-window transaction persists (cache
	// eviction) before any sync covers its records — the epoch analog of
	// log-before-data, outside any running transaction.
	evs := append(groupedTxs(),
		ev(0, 70, KWPQEnqueue, 0x1000, 64), // no KLogSync yet
		ev(0, 75, KLogSync, 0x8000, 120),
		ev(0, 76, KEpochClose, 0, 1),
	)
	wantViolation(t, sanitize(evs), "epoch-close", "open-epoch log records")
}

func TestSanitizeEpochCloseClearsState(t *testing.T) {
	// After a clean close the epoch obligation is gone: the same lines
	// persisting again (next epoch, new generation) raise nothing.
	evs := append(groupedTxs(),
		ev(0, 70, KLogSync, 0x8000, 120),
		ev(0, 71, KCommitMarker, 0, 2),
		ev(0, 74, KEpochClose, 0, 1),
		// next generation: the log region was reset, offsets restart.
		ev(0, 80, KTxBegin, 0, 3),
		ev(0, 81, KStore, 0x1008, 8),
		ev(0, 82, KLogAppend, 0x1008, 8),
		ev(0, 83, KLogPersist, 0x1008, 80),
		ev(0, 90, KTxCommit, 0, 3),
		ev(0, 91, KLogSync, 0x8000, 80),
		ev(0, 92, KCommitMarker, 0, 3),
		ev(0, 93, KWPQEnqueue, 0x1000, 64),
		ev(0, 94, KEpochClose, 0, 2),
	)
	wantClean(t, sanitize(evs))
}

func TestSanitizeMarkerCommitContributesNoEpochState(t *testing.T) {
	// A W=1 transaction (marker of its own) leaves no epoch obligation:
	// a later spurious KEpochClose-free persist of its line is silent,
	// exactly the pre-epoch replay semantics.
	evs := append(cleanUndoTx(),
		ev(0, 60, KWPQEnqueue, 0x1000, 128), // retained-line writeback after commit
	)
	wantClean(t, sanitize(evs))
}

func TestSanitizeViolationCap(t *testing.T) {
	evs := []Event{ev(0, 10, KWPQEnqueue, 0x1000, 64)}
	for i := 0; i < MaxViolations+50; i++ {
		evs = append(evs, ev(0, uint64(20+i), KWPQEnqueue, 0x1000, 64))
	}
	rep := sanitize(evs)
	if rep.Total != MaxViolations+50 {
		t.Fatalf("expected total %d, got %d", MaxViolations+50, rep.Total)
	}
	if len(rep.Violations) != MaxViolations {
		t.Fatalf("expected %d retained violations, got %d", MaxViolations, len(rep.Violations))
	}
}
