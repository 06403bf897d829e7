// Package logbuf implements the paper's four-tier coalescing log buffer
// (§III-B2), the on-core structure that turns word-granularity log
// records into packed persistent-memory writes.
//
// The tiers hold records of one word (8 B data), double words (16 B),
// quadruple words (32 B), and a full cache line (64 B). Record sizes
// including the 8-byte address are therefore 16, 24, 40 and 72 bytes.
// Each tier holds eight records (tier capacities of two, three, five and
// nine cache lines — 1216 bytes total, the figure of §III-D).
//
// Coalescing follows the buddy-allocator rule the paper cites: on every
// insertion the tier is searched for the record covering the buddy range
// (address XOR size); if found, the pair merges into a record of the
// next tier, recursively. When a tier is full and the incoming record
// has no coalescing opportunity, the whole tier is drained (spilled to
// persistent memory) to make room.
//
// The buffer is a pure in-memory structure: spilling is delegated to the
// owner through the Spill callback, which the transaction engine wires
// to the machine's WPQ. Like the hardware's fixed tier storage, the
// buffer owns every record's payload: Insert copies the caller's bytes
// into storage of the record's tier, a merge fills storage of the next
// tier, and storage is reused once a record leaves the buffer. A caller
// may therefore reuse one payload buffer for every insert; inserting,
// merging and spilling allocate nothing.
package logbuf

import (
	"fmt"
	"math/bits"
	"unsafe"

	"github.com/persistmem/slpmt/internal/mem"
)

// Tier count and per-tier record capacity.
const (
	Tiers       = 4
	TierRecords = 8
)

// DataSize returns the record data size (bytes) of tier t.
func DataSize(t int) int { return mem.WordSize << uint(t) } // 8,16,32,64

// RecordBytes returns the serialized record size of tier t: 8-byte
// address word plus data (16, 24, 40, 72 — Figure 6).
//
// Note the paper's figure lists 16/24/40 for the first three tiers; the
// double-word record is 24 bytes (8 addr + 16 data).
func RecordBytes(t int) int { return 8 + DataSize(t) }

// TotalBytes is the aggregate buffer capacity: sum over tiers of
// TierRecords * RecordBytes = 128+192+320+576 = 1216 bytes (§III-D).
const TotalBytes = TierRecords * (16 + 24 + 40 + 72)

// Record is one log record: the old (undo) or new (redo) value of an
// aligned power-of-two byte range within a single cache line.
type Record struct {
	// Addr is the start address; always aligned to len(Data).
	Addr mem.Addr
	// Data is the logged value; len is 8, 16, 32 or 64.
	Data []byte
	// Speculative marks a record created for clean data purely to help
	// log-bit aggregation (§III-B1). Recovery must tolerate them (they
	// are no-ops for undo logs).
	Speculative bool
}

// Tier returns the tier index for the record's size, or -1 if invalid.
func (r Record) Tier() int {
	switch len(r.Data) {
	case 8:
		return 0
	case 16:
		return 1
	case 32:
		return 2
	case 64:
		return 3
	default:
		return -1
	}
}

// Line returns the cache line the record belongs to.
func (r Record) Line() mem.Addr { return mem.LineAddr(r.Addr) }

// Stats counts buffer activity for the evaluation's logging metrics.
type Stats struct {
	Inserted  uint64 // records inserted (tier 0..3 direct inserts)
	Coalesced uint64 // pairwise merges performed
	Spilled   uint64 // records passed to the Spill callback
	Discarded uint64 // records dropped (lazy lines at commit)
	Stalls    uint64 // inserts that forced a tier drain
}

// chunkSlots is the number of payload chunks each tier owns: its
// TierRecords buffered records plus the one record an insert or a merge
// holds while the tier drains.
const chunkSlots = TierRecords + 1

// Buffer is the four-tier log buffer. Not safe for concurrent use.
type Buffer struct {
	tiers [Tiers][]Record
	// Spill receives records evicted from the buffer by capacity
	// pressure or an explicit flush; they must be made durable. The
	// callback must not retain the slice or the records' payloads past
	// its return: both are reused by later inserts. May be nil in
	// tests, in which case spilled records are dropped.
	Spill func([]Record)
	stats Stats

	// store holds every buffered record's payload: chunkSlots chunks of
	// DataSize(t) bytes for each tier t. used[t] has bit i set while
	// chunk i of tier t backs a live record.
	store [chunkSlots * (8 + 16 + 32 + 64)]byte
	used  [Tiers]uint16
	// taken is takeLine's reusable result.
	taken []Record
}

// New returns an empty buffer with the given spill callback.
func New(spill func([]Record)) *Buffer {
	b := &Buffer{Spill: spill}
	// One array backs every tier; each tier's capacity ends where the
	// next one's storage starts, so a tier cannot grow into it.
	all := make([]Record, Tiers*TierRecords)
	for t := range b.tiers {
		b.tiers[t] = all[t*TierRecords : t*TierRecords : (t+1)*TierRecords]
	}
	b.Reset()
	return b
}

// Reset empties the buffer without spilling and zeroes its counters,
// returning it to the state New left it in; the tiers' storage and the
// spill callback are kept.
func (b *Buffer) Reset() {
	tiers := b.tiers
	for t := range tiers {
		tiers[t] = tiers[t][:0]
	}
	*b = Buffer{tiers: tiers, Spill: b.Spill, taken: b.taken[:0]}
}

// Len returns the number of records currently buffered.
func (b *Buffer) Len() int {
	n := 0
	for t := range b.tiers {
		n += len(b.tiers[t])
	}
	return n
}

// Stats returns a copy of the activity counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Insert adds a word-granularity record (len(Data)==8) created by a
// store, coalescing it up the tiers. Records of larger sizes may also be
// inserted directly (cache-line-granularity schemes insert 64-byte
// records). The payload is copied into the buffer before anything else
// happens, so the caller may overwrite r.Data once Insert returns, and
// so may a Spill callback that a drain inside Insert runs.
func (b *Buffer) Insert(r Record) {
	t := r.Tier()
	if t < 0 {
		panic(fmt.Sprintf("logbuf: invalid record size %d", len(r.Data)))
	}
	if !mem.AlignedTo(r.Addr, uint64(len(r.Data))) {
		panic(fmt.Sprintf("logbuf: record %#x not aligned to %d", r.Addr, len(r.Data)))
	}
	b.stats.Inserted++
	data := b.alloc(t)
	copy(data, r.Data)
	r.Data = data
	b.insert(t, r)
}

func (b *Buffer) insert(t int, r Record) {
	for t < Tiers-1 {
		// Buddy search: the same-size record that together with r forms
		// an aligned record of the next tier.
		size := mem.Addr(len(r.Data))
		buddy := r.Addr ^ size
		idx := -1
		for i, q := range b.tiers[t] {
			if q.Addr == buddy {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		q := b.tiers[t][idx]
		b.tiers[t] = append(b.tiers[t][:idx], b.tiers[t][idx+1:]...)
		r = b.merge(t, r, q)
		b.stats.Coalesced++
		t++
	}
	// Insert into tier t; drain the tier if full (the incoming record
	// had no coalescing opportunity there, by construction above).
	if len(b.tiers[t]) >= TierRecords {
		b.stats.Stalls++
		b.drainTier(t)
	}
	b.tiers[t] = append(b.tiers[t], r)
}

// merge combines two tier-t buddy records into one of tier t+1, whose
// payload lives in the buffer's storage; the pair's chunks are freed.
func (b *Buffer) merge(t int, a, c Record) Record {
	if a.Addr > c.Addr {
		a, c = c, a
	}
	data := b.alloc(t + 1)
	n := copy(data, a.Data)
	copy(data[n:], c.Data)
	b.release(a)
	b.release(c)
	return Record{
		Addr:        a.Addr,
		Data:        data,
		Speculative: a.Speculative && c.Speculative,
	}
}

// tierOff is the offset in store of tier t's first chunk. Tiers 0..t-1
// precede it: chunkSlots*(8+16+...+8<<(t-1)) bytes.
func tierOff(t int) int { return chunkSlots * DataSize(0) * ((1 << t) - 1) }

// chunk returns payload chunk i of tier t.
func (b *Buffer) chunk(t, i int) []byte {
	size := DataSize(t)
	off := tierOff(t) + i*size
	return b.store[off : off+size : off+size]
}

// alloc claims a free payload chunk of tier t. The tier never holds
// more than chunkSlots records at once, so one is always free.
func (b *Buffer) alloc(t int) []byte {
	free := ^b.used[t] & (1<<chunkSlots - 1)
	if free == 0 {
		panic("logbuf: merged-record storage exhausted")
	}
	i := bits.TrailingZeros16(free)
	b.used[t] |= 1 << i
	return b.chunk(t, i)
}

// release frees the chunk backing r's payload. Every buffered record's
// payload is a chunk of store (Insert and merge copy into one), so the
// chunk's index follows from the payload's offset in store.
func (b *Buffer) release(r Record) {
	t := r.Tier()
	off := int(uintptr(unsafe.Pointer(unsafe.SliceData(r.Data))) - uintptr(unsafe.Pointer(&b.store)))
	bit := uint16(1) << ((off - tierOff(t)) / DataSize(t))
	if b.used[t]&bit == 0 {
		panic("logbuf: released a payload the buffer does not hold")
	}
	b.used[t] &^= bit
}

// drainTier spills every record of tier t.
func (b *Buffer) drainTier(t int) {
	recs := b.tiers[t]
	if len(recs) == 0 {
		return
	}
	b.tiers[t] = recs[:0]
	b.spill(recs)
}

// spill frees recs' chunks and hands the records to the callback. The
// chunks stay intact until the next insert, which cannot happen before
// the callback returns.
func (b *Buffer) spill(recs []Record) {
	for _, r := range recs {
		b.release(r)
	}
	b.stats.Spilled += uint64(len(recs))
	if b.Spill != nil {
		b.Spill(recs)
	}
}

// FlushLine removes and spills every record belonging to the cache line
// at lineAddr — the action taken when the associated line is evicted
// from the private caches (§II). Returns the number of records flushed.
func (b *Buffer) FlushLine(lineAddr mem.Addr) int {
	recs := b.takeLine(lineAddr)
	if len(recs) > 0 {
		b.spill(recs)
	}
	return len(recs)
}

// DiscardLine removes (without spilling) every record belonging to the
// line at lineAddr — the commit-time treatment of records for lazily
// persistent lines (§III-B2). Returns the number discarded.
func (b *Buffer) DiscardLine(lineAddr mem.Addr) int {
	recs := b.takeLine(lineAddr)
	for _, r := range recs {
		b.release(r)
	}
	b.stats.Discarded += uint64(len(recs))
	return len(recs)
}

// takeLine removes the line's records, tier by tier in buffer order, into
// the reusable taken slice.
func (b *Buffer) takeLine(lineAddr mem.Addr) []Record {
	out := b.taken[:0]
	for t := range b.tiers {
		kept := b.tiers[t][:0]
		for _, r := range b.tiers[t] {
			if r.Line() == lineAddr {
				out = append(out, r)
			} else {
				kept = append(kept, r)
			}
		}
		b.tiers[t] = kept
	}
	b.taken = out
	return out
}

// HasLine reports whether any buffered record belongs to the given line.
// This models the TCAM address search (§III-B2).
func (b *Buffer) HasLine(lineAddr mem.Addr) bool {
	for t := range b.tiers {
		for _, r := range b.tiers[t] {
			if r.Line() == lineAddr {
				return true
			}
		}
	}
	return false
}

// DrainAll spills every buffered record (transaction commit). Records
// are spilled tier by tier, largest first, so that line-sized records
// pack first.
func (b *Buffer) DrainAll() {
	for t := Tiers - 1; t >= 0; t-- {
		b.drainTier(t)
	}
}

// Clear empties the buffer without spilling (transaction abort, §V-B).
func (b *Buffer) Clear() int {
	n := b.Len()
	for t := range b.tiers {
		b.tiers[t] = b.tiers[t][:0]
	}
	b.used = [Tiers]uint16{}
	return n
}

// Records returns a snapshot of all buffered records (for tests). The
// payloads are the buffer's own and stay valid only until the next
// insert.
func (b *Buffer) Records() []Record {
	out := make([]Record, 0, b.Len())
	for t := range b.tiers {
		out = append(out, b.tiers[t]...)
	}
	return out
}
