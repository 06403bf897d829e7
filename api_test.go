package slpmt

import (
	"errors"
	"testing"
)

func TestViewRejectsMutation(t *testing.T) {
	sys := New(Options{})
	defer func() {
		if recover() == nil {
			t.Error("store in View should panic")
		}
	}()
	sys.View(func(tx *Tx) {
		tx.StoreU64(sys.Layout().HeapBase, 1)
	})
}

func TestNestedUpdatePanics(t *testing.T) {
	sys := New(Options{})
	defer func() {
		if recover() == nil {
			t.Error("nested Update should panic")
		}
	}()
	_ = sys.Update(func(tx *Tx) error {
		return sys.Update(func(tx2 *Tx) error { return nil })
	})
}

func TestUnknownSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown scheme should panic")
		}
	}()
	New(Options{Scheme: "bogus"})
}

func TestRootSlotBounds(t *testing.T) {
	sys := New(Options{})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range root slot should panic")
		}
	}()
	_ = sys.Update(func(tx *Tx) error {
		tx.SetRoot(1<<20, 1)
		return nil
	})
}

// TestRedoSchemesEndToEnd: the redo variants provide the same durable
// semantics through the Figure 4 redo ordering.
func TestRedoSchemesEndToEnd(t *testing.T) {
	for _, scheme := range []string{"FG-redo", "SLPMT-redo"} {
		t.Run(scheme, func(t *testing.T) {
			sys := New(Options{Scheme: scheme})
			var a Addr
			if err := sys.Update(func(tx *Tx) error {
				a = tx.Alloc(16)
				tx.StoreU64(a, 10)
				tx.StoreTU64(a+8, 20, LogFree)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := sys.Update(func(tx *Tx) error {
				tx.StoreU64(a, 11)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			sys.DrainLazy()
			img := sys.Mach.Crash()
			if img.ReadU64(a) != 11 || img.ReadU64(a+8) != 20 {
				t.Errorf("durable = %d/%d, want 11/20", img.ReadU64(a), img.ReadU64(a+8))
			}
			// Abort under redo drops the volatile updates.
			boom := errors.New("boom")
			if err := sys.Update(func(tx *Tx) error {
				tx.StoreU64(a, 99)
				return boom
			}); err != boom {
				t.Fatal(err)
			}
			sys.View(func(tx *Tx) {
				if got := tx.LoadU64(a); got != 11 {
					t.Errorf("after redo abort: %d, want 11", got)
				}
			})
		})
	}
}

// TestCopySemantics: Copy moves bytes and is annotated like a storeT.
func TestCopySemantics(t *testing.T) {
	sys := New(Options{})
	var a, b Addr
	if err := sys.Update(func(tx *Tx) error {
		a = tx.Alloc(64)
		b = tx.Alloc(64)
		tx.Store(a, []byte("persistent-memory-data!"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Update(func(tx *Tx) error {
		tx.Copy(b, a, 24, LazyLogFree)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sys.View(func(tx *Tx) {
		got := make([]byte, 24)
		tx.Load(b, got)
		if string(got) != "persistent-memory-data!\x00"[:24] {
			t.Errorf("copy result %q", got)
		}
	})
}

// TestSchemeAccessors.
func TestSchemeAccessors(t *testing.T) {
	sys := New(Options{Scheme: "ATOM"})
	if sys.Scheme() != "ATOM" {
		t.Error("scheme accessor wrong")
	}
	if len(Schemes()) < 8 || len(EvaluatedSchemes()) != 6 {
		t.Error("scheme lists wrong")
	}
}

// TestWriteLatencyOption: raising the PM write latency slows the run.
func TestWriteLatencyOption(t *testing.T) {
	run := func(lat uint64) uint64 {
		sys := New(Options{Scheme: "FG", PMWriteNanos: lat})
		for i := 0; i < 20; i++ {
			if err := sys.Update(func(tx *Tx) error {
				a := tx.Alloc(256)
				buf := make([]byte, 256)
				tx.Store(a, buf)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return sys.Cycles()
	}
	if fast, slow := run(500), run(2300); slow <= fast {
		t.Errorf("write latency had no effect: %d vs %d", fast, slow)
	}
}

// TestAccountingInvariant: PM write entries and byte counters stay
// consistent across a workload-like run.
func TestAccountingInvariant(t *testing.T) {
	sys := New(Options{Scheme: "SLPMT"})
	for i := 0; i < 50; i++ {
		if err := sys.Update(func(tx *Tx) error {
			a := tx.Alloc(128)
			tx.StoreT(a, make([]byte, 128), LogFree)
			tx.SetRoot(0, uint64(a))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.DrainLazy()
	c := sys.Stats()
	if c.PMWriteBytes() != 64*c.PMWriteEntries {
		t.Errorf("bytes %d != 64 * entries %d", c.PMWriteBytes(), c.PMWriteEntries)
	}
	if c.LogRecordsPersisted+c.LogRecordsDiscarded > c.LogRecordsCreated+c.SpeculativeRecords {
		t.Errorf("record accounting inconsistent: persisted %d + discarded %d > created %d",
			c.LogRecordsPersisted, c.LogRecordsDiscarded, c.LogRecordsCreated)
	}
}

// TestEmptyTransactionsDoNotAllocate pins the reused Tx handles: an
// empty Update and an empty View allocate nothing on the host.
func TestEmptyTransactionsDoNotAllocate(t *testing.T) {
	sys := New(Options{Scheme: "SLPMT"})
	update := func(tx *Tx) error { return nil }
	view := func(tx *Tx) {}
	if n := testing.AllocsPerRun(100, func() { _ = sys.Update(update) }); n != 0 {
		t.Errorf("empty Update allocates %.2f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sys.View(view) }); n != 0 {
		t.Errorf("empty View allocates %.2f times, want 0", n)
	}
}
