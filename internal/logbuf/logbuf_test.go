package logbuf

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/persistmem/slpmt/internal/mem"
)

func word(addr mem.Addr, fill byte) Record {
	d := make([]byte, 8)
	for i := range d {
		d[i] = fill
	}
	return Record{Addr: addr, Data: d}
}

func TestGeometryConstants(t *testing.T) {
	if TotalBytes != 1216 {
		t.Errorf("TotalBytes = %d, want 1216 (§III-D)", TotalBytes)
	}
	wantRecord := []int{16, 24, 40, 72}
	wantData := []int{8, 16, 32, 64}
	for tier := 0; tier < Tiers; tier++ {
		if RecordBytes(tier) != wantRecord[tier] || DataSize(tier) != wantData[tier] {
			t.Errorf("tier %d: record=%d data=%d", tier, RecordBytes(tier), DataSize(tier))
		}
	}
}

func TestBuddyCoalescingToFullLine(t *testing.T) {
	b := New(nil)
	// Insert the eight words of one line: they must coalesce into a
	// single 64-byte record in the top tier.
	for w := 0; w < 8; w++ {
		b.Insert(word(0x1000+mem.Addr(w*8), byte(w)))
	}
	recs := b.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 coalesced line record", len(recs))
	}
	r := recs[0]
	if r.Addr != 0x1000 || len(r.Data) != 64 {
		t.Fatalf("coalesced record %#x len %d", r.Addr, len(r.Data))
	}
	for w := 0; w < 8; w++ {
		if r.Data[w*8] != byte(w) {
			t.Errorf("word %d payload lost in coalescing", w)
		}
	}
	if b.Stats().Coalesced != 7 {
		t.Errorf("coalesce count = %d, want 7", b.Stats().Coalesced)
	}
}

func TestNonBuddyDoesNotCoalesce(t *testing.T) {
	b := New(nil)
	b.Insert(word(0x08, 1)) // words 1 and 2 are adjacent but not buddies
	b.Insert(word(0x10, 2))
	if n := len(b.Records()); n != 2 {
		t.Errorf("non-buddy words coalesced: %d records", n)
	}
	b2 := New(nil)
	b2.Insert(word(0x00, 1))
	b2.Insert(word(0x08, 2)) // buddies
	if n := len(b2.Records()); n != 1 {
		t.Errorf("buddies did not coalesce: %d records", n)
	}
}

func TestTierPressureSpills(t *testing.T) {
	var spilled []Record
	b := New(func(rs []Record) { spilled = append(spilled, rs...) })
	// Nine isolated words from different lines: the 9th insert finds
	// tier 0 full with no coalescing opportunity and drains it.
	for i := 0; i < TierRecords+1; i++ {
		b.Insert(word(mem.Addr(0x1000+i*128), byte(i)))
	}
	if len(spilled) != TierRecords {
		t.Fatalf("spilled %d records, want %d", len(spilled), TierRecords)
	}
	if b.Len() != 1 {
		t.Errorf("buffer holds %d, want 1 (the trigger record)", b.Len())
	}
	if b.Stats().Stalls != 1 {
		t.Errorf("stalls = %d, want 1", b.Stats().Stalls)
	}
}

func TestFlushLine(t *testing.T) {
	var spilled []Record
	b := New(func(rs []Record) { spilled = append(spilled, rs...) })
	b.Insert(word(0x1000, 1))
	b.Insert(word(0x1008, 2)) // coalesces with the first
	b.Insert(word(0x2000, 3))
	if n := b.FlushLine(0x1000); n != 1 {
		t.Fatalf("FlushLine flushed %d records, want the 1 coalesced", n)
	}
	if len(spilled) != 1 || spilled[0].Addr != 0x1000 || len(spilled[0].Data) != 16 {
		t.Fatalf("flushed record wrong: %+v", spilled)
	}
	if b.HasLine(0x1000) {
		t.Error("line still present after flush")
	}
	if !b.HasLine(0x2000) {
		t.Error("unrelated line flushed")
	}
}

func TestDiscardLine(t *testing.T) {
	b := New(func(rs []Record) { t.Error("discard must not spill") })
	b.Insert(word(0x1000, 1))
	b.Insert(word(0x1020, 2))
	if n := b.DiscardLine(0x1000); n != 2 {
		t.Errorf("discarded %d, want 2", n)
	}
	if b.Stats().Discarded != 2 {
		t.Errorf("discard stat = %d", b.Stats().Discarded)
	}
}

func TestDrainAllAndClear(t *testing.T) {
	var spilled int
	b := New(func(rs []Record) { spilled += len(rs) })
	for i := 0; i < 5; i++ {
		b.Insert(word(mem.Addr(0x1000+i*64), 1))
	}
	b.DrainAll()
	if spilled != 5 || b.Len() != 0 {
		t.Errorf("drain: spilled=%d len=%d", spilled, b.Len())
	}
	b.Insert(word(0x5000, 1))
	if n := b.Clear(); n != 1 || b.Len() != 0 {
		t.Errorf("clear: n=%d len=%d", n, b.Len())
	}
	if spilled != 5 {
		t.Error("clear must not spill")
	}
}

func TestInvalidRecordPanics(t *testing.T) {
	b := New(nil)
	for _, r := range []Record{
		{Addr: 0x1000, Data: make([]byte, 12)}, // bad size
		{Addr: 0x1004, Data: make([]byte, 8)},  // misaligned
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("record %+v should panic", r)
				}
			}()
			b.Insert(r)
		}()
	}
}

// TestPayloadPreservation: whatever sequence of word inserts happens,
// the union of buffered and spilled records reproduces exactly the
// last-written payload of every inserted word.
func TestPayloadPreservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		want := map[mem.Addr]byte{}
		got := map[mem.Addr]byte{}
		collect := func(rs []Record) {
			for _, r := range rs {
				for w := 0; w < len(r.Data)/8; w++ {
					got[r.Addr+mem.Addr(w*8)] = r.Data[w*8]
				}
			}
		}
		// Spilled payloads are read inside the callback: the buffer
		// reuses their storage afterwards.
		b := New(collect)
		for i := 0; i < int(n); i++ {
			addr := mem.Addr(rng.Intn(64)) * 8
			fill := byte(rng.Intn(255) + 1)
			if _, dup := want[addr]; dup {
				continue // the engine logs each word once per txn
			}
			want[addr] = fill
			b.Insert(word(addr, fill))
		}
		collect(b.Records())
		if len(got) != len(want) {
			return false
		}
		for a, v := range want {
			if got[a] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBufferOwnsPayloads: Insert copies the record's payload, so
// records inserted from one caller buffer, overwritten after every
// Insert, keep their original bytes: word records at tier 0 (isolated
// words and buddies that merge) and line records inserted directly at
// tier 3, whether they leave by a tier drain, a FlushLine or DrainAll,
// or are read back through Records.
func TestBufferOwnsPayloads(t *testing.T) {
	for _, size := range []int{DataSize(0), DataSize(Tiers - 1)} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			var buf [mem.LineSize]byte
			want := map[mem.Addr]uint64{} // word address -> inserted word
			left := map[mem.Addr]bool{}   // words not yet spilled
			phase := "tier drain"
			check := func(how string, rs []Record) {
				t.Helper()
				for _, r := range rs {
					for w := 0; w < len(r.Data); w += mem.WordSize {
						a := r.Addr + mem.Addr(w)
						if got := binary.LittleEndian.Uint64(r.Data[w:]); got != want[a] {
							t.Errorf("%s: word %#x = %#x, inserted %#x", how, a, got, want[a])
						}
					}
				}
			}
			spilled := 0
			b := New(func(rs []Record) {
				check(phase, rs)
				for _, r := range rs {
					for w := 0; w < len(r.Data); w += mem.WordSize {
						delete(left, r.Addr+mem.Addr(w))
					}
				}
				spilled += len(rs)
			})
			n := 0
			insert := func(a mem.Addr) {
				for w := 0; w < size; w += mem.WordSize {
					n++
					v := uint64(n)<<8 | uint64(w)
					binary.LittleEndian.PutUint64(buf[w:], v)
					want[a+mem.Addr(w)], left[a+mem.Addr(w)] = v, true
				}
				b.Insert(Record{Addr: a, Data: buf[:size]})
				for i := range buf {
					buf[i] = 0xEE
				}
			}
			// Isolated records of distinct lines: the ninth drains the
			// tier.
			for i := 0; i < 2*TierRecords+3; i++ {
				insert(mem.Addr(0x10000 + i*2*mem.LineSize))
			}
			if size == mem.WordSize {
				// Buddies: a whole line of words merges up to tier 3.
				for w := 0; w < mem.WordsPerLine; w++ {
					insert(0x40000 + mem.Addr(w*mem.WordSize))
				}
			}
			if spilled == 0 {
				t.Fatal("no tier drained")
			}
			check("Records", b.Records())
			phase = "FlushLine"
			if b.FlushLine(0x10000+mem.Addr((2*TierRecords+2)*2*mem.LineSize)) != 1 {
				t.Fatal("FlushLine found no record")
			}
			phase = "DrainAll"
			b.DrainAll()
			if len(left) != 0 {
				t.Errorf("%d inserted words never spilled", len(left))
			}
		})
	}
}

// TestSpeculativeFlagPropagation: merging a speculative and a real
// record yields a non-speculative record (it carries real undo data).
func TestSpeculativeFlagPropagation(t *testing.T) {
	b := New(nil)
	r1 := word(0x1000, 1)
	r1.Speculative = true
	r2 := word(0x1008, 2)
	b.Insert(r1)
	b.Insert(r2)
	recs := b.Records()
	if len(recs) != 1 || recs[0].Speculative {
		t.Errorf("merge of spec+real should be real: %+v", recs)
	}
	b2 := New(nil)
	r3 := word(0x2000, 1)
	r3.Speculative = true
	r4 := word(0x2008, 2)
	r4.Speculative = true
	b2.Insert(r3)
	b2.Insert(r4)
	if recs := b2.Records(); len(recs) != 1 || !recs[0].Speculative {
		t.Errorf("merge of spec+spec should stay speculative: %+v", recs)
	}
}

func TestRecordTier(t *testing.T) {
	if (Record{Data: make([]byte, 8)}).Tier() != 0 ||
		(Record{Data: make([]byte, 64)}).Tier() != 3 ||
		(Record{Data: make([]byte, 24)}).Tier() != -1 {
		t.Error("Tier classification broken")
	}
}
