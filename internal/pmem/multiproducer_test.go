package pmem

import "testing"

// Multi-producer WPQ behavior: on a multi-core machine the cores
// arbitrate for the one device at their own interleaved clock values,
// so consecutive Persist calls arrive with out-of-order `now`
// timestamps. These tests pin the properties the shared-device timing
// model must keep under that access pattern.

// zline returns a zeroed 64-byte payload.
func zline() []byte { return make([]byte, 64) }

func TestOutOfOrderTimestampsKeepQueueSorted(t *testing.T) {
	d := New(Config{})
	// A fast core far ahead in time and a slow core behind interleave.
	times := []uint64{100_000, 500, 90_000, 1_000, 80_000, 1_500, 70_000, 2_000}
	for i, now := range times {
		d.PersistAsync(now, uint64(64*i), zline())
	}
	for i := 1; i < len(d.queue); i++ {
		if d.queue[i-1].finish > d.queue[i].finish {
			t.Fatalf("queue unsorted at %d: %d > %d", i, d.queue[i-1].finish, d.queue[i].finish)
		}
	}
}

func TestQueueDepthConsistentAcrossTimestamps(t *testing.T) {
	d := New(Config{})
	for i := 0; i < 6; i++ {
		d.PersistAsync(uint64(1_000*i), uint64(64*i), zline())
	}
	// Depth observed by a core behind in time includes everything not
	// yet finished at its clock; a later observation can only see fewer
	// entries. Probing at interleaved clocks must never corrupt the
	// byte accounting.
	depthEarly := d.QueueDepth(0)
	depthLate := d.QueueDepth(1 << 40)
	if depthLate != 0 {
		t.Errorf("queue not empty at t=inf: %d", depthLate)
	}
	if depthEarly < depthLate {
		t.Errorf("earlier observation saw fewer entries: %d < %d", depthEarly, depthLate)
	}
	if d.usedBytes != 0 {
		t.Errorf("byte accounting corrupted: usedBytes=%d after full drain", d.usedBytes)
	}
}

func TestStallAccountingMonotonicInNow(t *testing.T) {
	// Fill the WPQ from one producer, then measure the stall a second
	// producer pays when enqueueing at increasing clocks: later arrival
	// must never stall longer (entries only drain as time passes).
	mk := func() *Device {
		d := New(Config{})
		for i := 0; i < 16; i++ { // 16*64 = 1024 B > 512 B WPQ
			d.PersistAsync(0, uint64(64*i), zline())
		}
		return d
	}
	var prev uint64
	for i, now := range []uint64{0, 500, 1_000, 2_000, 4_000, 8_000, 32_000} {
		d := mk()
		stall := d.Persist(now, 4096, zline())
		if i > 0 && stall > prev {
			t.Errorf("stall grew with later arrival: now=%d stall=%d (prev %d)", now, stall, prev)
		}
		prev = stall
	}
}

func TestBankFinishFairAcrossProducers(t *testing.T) {
	// Two interleaved producers with 2 banks: entries drain pairwise —
	// the k-th entry cannot finish before ceil(k/banks) service slots
	// have elapsed, and every entry finishes no earlier than its own
	// enqueue plus one service time.
	d := New(Config{})
	var fins []uint64
	for i := 0; i < 8; i++ {
		now := uint64(10 * i) // near-simultaneous arrivals, alternating cores
		d.PersistStream(now, uint64(64*i), zline())
		fins = append(fins, d.LastFinish())
		if got, min := d.LastFinish(), now+EnqueueCycles+d.cfg.WriteCycles; got < min {
			t.Fatalf("entry %d finished at %d, before enqueue+service %d", i, got, min)
		}
	}
	// With Banks=2, entry i's service may start no earlier than entry
	// i-2's finish: no producer can claim both banks forever.
	for i := 2; i < len(fins); i++ {
		if fins[i] < fins[i-2]+d.cfg.WriteCycles {
			t.Errorf("entry %d finished at %d: overlaps >Banks concurrent services (prev-2 fin %d)",
				i, fins[i], fins[i-2])
		}
	}
}

func TestSingleProducerAppendFastPath(t *testing.T) {
	// Monotone arrivals (the single-core pattern) must produce monotone
	// finish times — the property that makes sorted insertion a plain
	// append, keeping single-core runs byte-identical to the old
	// append-only queue.
	d := New(Config{})
	var prev uint64
	for i := 0; i < 32; i++ {
		d.Persist(uint64(100*i), uint64(64*i), zline())
		if f := d.LastFinish(); f < prev {
			t.Fatalf("finish regressed under monotone arrivals: %d < %d", f, prev)
		} else {
			prev = f
		}
	}
}
