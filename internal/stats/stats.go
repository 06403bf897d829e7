// Package stats collects the simulation counters that the paper's
// evaluation reports: cycles, persistent-memory write traffic (split into
// data and log bytes), cache events, log-buffer activity, and
// lazy-persistency bookkeeping.
//
// A single Counters value is owned by one simulated machine; it is not
// safe for concurrent use (the simulator is single-threaded per machine).
package stats

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// Counters aggregates every event class the evaluation reports on.
type Counters struct {
	// Cycles is the simulated execution time of the program.
	Cycles uint64

	// Instruction mix.
	Loads, Stores, StoreTs uint64

	// Transactions.
	TxBegins, TxCommits, TxAborts uint64
	// EpochCloses counts group-commit epoch seals (zero below W=2): each
	// is one amortized drain + barrier + marker covering a window of
	// committed transactions.
	EpochCloses uint64

	// Cache events, per level.
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	L3Hits, L3Misses   uint64
	L1Evicts, L2Evicts uint64
	L3Evicts           uint64
	L3Writebacks       uint64 // dirty L3 evictions reaching PM

	// PM write traffic in bytes, as counted at the write-pending queue.
	PMWriteBytesData uint64 // data cache-line persists + writebacks
	PMWriteBytesLog  uint64 // log-record persists
	PMWriteEntries   uint64 // WPQ entries enqueued
	PMReadBytes      uint64 // demand fills from PM
	WPQStallCycles   uint64 // cycles the core stalled on a full WPQ

	// WPQ occupancy gauges (bytes). Unlike the event counters these are
	// not additive: Add merges them by maximum and Delta passes the
	// current value through unchanged, because a high-water mark or a
	// time-weighted mean cannot be meaningfully subtracted. They are
	// populated from pmem.Device.OccupancyStats by harnesses that measure
	// occupancy (multi-core runs and traced single-core runs).
	WPQOccMaxBytes uint64 // high-water mark of WPQ occupancy
	WPQOccAvgBytes uint64 // time-weighted mean WPQ occupancy

	// Logging activity.
	LogRecordsCreated   uint64 // records inserted into the log buffer
	LogRecordsCoalesced uint64 // pairwise coalesce operations performed
	LogRecordsDiscarded uint64 // records dropped at commit (lazy lines)
	LogRecordsPersisted uint64 // records that reached PM
	LogBytesPersisted   uint64 // payload bytes of persisted records
	LogDuplicates       uint64 // re-logging after L2 log-bit loss
	SpeculativeRecords  uint64 // records created speculatively (§III-B)
	LogBufferStalls     uint64 // stores stalled on a locked/full tier 1

	// Persist events.
	EagerLinePersists uint64 // lines persisted at commit
	EvictLinePersists uint64 // lines persisted due to L2->L3 eviction
	LazyLinesDeferred uint64 // lines left volatile at commit
	LazyLinePersists  uint64 // deferred lines later forced to PM
	LazyLinesElided   uint64 // deferred lines never persisted (overwritten or clean)

	// Lazy-persistency conflict machinery.
	SignatureHits   uint64 // working-set matches forcing persistence
	TxIDRecycles    uint64 // forced persists due to transaction-ID reuse
	TxIDCrossAccess uint64 // cache-line txid mismatches forcing persistence

	// Cross-core coherence (multi-core machines only; always zero on a
	// single core).
	CoherenceSnoops        uint64 // bus requests that found a remote copy
	CoherenceInvalidations uint64 // remote copies invalidated by a write
	CoherenceDowngrades    uint64 // remote copies downgraded to Shared
	CoherenceWritebacks    uint64 // dirty remote copies written back

	// Allocator.
	HeapAllocs, HeapFrees uint64
	HeapBytesAllocated    uint64
}

// PMWriteBytes returns total persistent-memory write traffic in bytes.
func (c *Counters) PMWriteBytes() uint64 {
	return c.PMWriteBytesData + c.PMWriteBytesLog
}

// Add accumulates o into c. The WPQ gauges merge by maximum: the
// cores of one machine observe the same shared WPQ, so summing would
// double-count.
func (c *Counters) Add(o *Counters) {
	dst, src := canonicalRows(c), canonicalRows(o)
	for i := range dst {
		if dst[i].gauge {
			*dst[i].p = max(*dst[i].p, src[i].Value)
		} else {
			*dst[i].p += src[i].Value
		}
	}
}

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }

// Snapshot returns a copy of the counters.
func (c *Counters) Snapshot() Counters { return *c }

// Delta returns the counters accumulated since the given snapshot. The
// WPQ gauges pass through: the current high-water mark / mean is the
// reading for the interval (harnesses reset the device's occupancy
// window at the interval start instead of subtracting).
func (c *Counters) Delta(since Counters) Counters {
	d := *c
	cur, old := canonicalRows(&d), canonicalRows(&since)
	for i := range cur {
		if !cur[i].gauge {
			*cur[i].p -= old[i].Value
		}
	}
	return d
}

// Row is one (name, value) pair of a rendered counter table.
type Row struct {
	Name  string
	Value uint64
}

// Rows returns the non-zero counters in a stable, grouped order, suitable
// for the CLI tools' reports.
func (c *Counters) Rows() []Row {
	rows := make([]Row, 0, numCounters)
	for _, r := range canonicalRows(c) {
		if r.Value != 0 {
			rows = append(rows, r.Row)
		}
	}
	return rows
}

// String renders the non-zero counters as an aligned table.
func (c *Counters) String() string {
	rows := c.Rows()
	width := 0
	for _, r := range rows {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %d\n", width+2, r.Name, r.Value)
	}
	return b.String()
}

// Named returns the value of the counter with the given dotted name, as
// produced by Rows, and whether it exists (including zero-valued ones).
func (c *Counters) Named(name string) (uint64, bool) {
	for _, r := range canonicalRows(c) {
		if r.Name == name {
			return r.Value, true
		}
	}
	return 0, false
}

// Names returns every counter name in canonical order.
func Names() []string {
	rows := canonicalRows(&Counters{})
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	sort.Strings(names)
	return names
}

// counter is one Counters field: its row and where the field lives.
type counter struct {
	Row
	p *uint64
	// gauge marks the WPQ occupancy gauges: unlike the event counters
	// they are not additive, so Add merges them by maximum and Delta
	// passes them through.
	gauge bool
}

// numCounters is the number of Counters fields, each a uint64.
const numCounters = unsafe.Sizeof(Counters{}) / unsafe.Sizeof(uint64(0))

// canonicalRows lists every field of c under its dotted name, in report
// order: the one field list that Add, Delta, Rows, Named and Names
// walk. The array stays on the caller's stack.
func canonicalRows(c *Counters) [numCounters]counter {
	row := func(name string, p *uint64) counter { return counter{Row{name, *p}, p, false} }
	gauge := func(name string, p *uint64) counter { return counter{Row{name, *p}, p, true} }
	return [...]counter{
		row("cycles", &c.Cycles),
		row("loads", &c.Loads),
		row("stores", &c.Stores),
		row("storeTs", &c.StoreTs),
		row("tx.begins", &c.TxBegins),
		row("tx.commits", &c.TxCommits),
		row("tx.aborts", &c.TxAborts),
		row("log.epoch.closes", &c.EpochCloses),
		row("l1.hits", &c.L1Hits),
		row("l1.misses", &c.L1Misses),
		row("l2.hits", &c.L2Hits),
		row("l2.misses", &c.L2Misses),
		row("l3.hits", &c.L3Hits),
		row("l3.misses", &c.L3Misses),
		row("l1.evicts", &c.L1Evicts),
		row("l2.evicts", &c.L2Evicts),
		row("l3.evicts", &c.L3Evicts),
		row("l3.writebacks", &c.L3Writebacks),
		row("pm.write.bytes.data", &c.PMWriteBytesData),
		row("pm.write.bytes.log", &c.PMWriteBytesLog),
		row("pm.write.entries", &c.PMWriteEntries),
		row("pm.read.bytes", &c.PMReadBytes),
		row("pm.wpq.stall.cycles", &c.WPQStallCycles),
		gauge("pm.wpq.occ.max", &c.WPQOccMaxBytes),
		gauge("pm.wpq.occ.avg", &c.WPQOccAvgBytes),
		row("log.records.created", &c.LogRecordsCreated),
		row("log.records.coalesced", &c.LogRecordsCoalesced),
		row("log.records.discarded", &c.LogRecordsDiscarded),
		row("log.records.persisted", &c.LogRecordsPersisted),
		row("log.bytes.persisted", &c.LogBytesPersisted),
		row("log.duplicates", &c.LogDuplicates),
		row("log.speculative", &c.SpeculativeRecords),
		row("log.buffer.stalls", &c.LogBufferStalls),
		row("persist.eager.lines", &c.EagerLinePersists),
		row("persist.evict.lines", &c.EvictLinePersists),
		row("lazy.deferred.lines", &c.LazyLinesDeferred),
		row("lazy.persisted.lines", &c.LazyLinePersists),
		row("lazy.elided.lines", &c.LazyLinesElided),
		row("lazy.signature.hits", &c.SignatureHits),
		row("lazy.txid.recycles", &c.TxIDRecycles),
		row("lazy.txid.crossaccess", &c.TxIDCrossAccess),
		row("coh.snoops", &c.CoherenceSnoops),
		row("coh.invalidations", &c.CoherenceInvalidations),
		row("coh.downgrades", &c.CoherenceDowngrades),
		row("coh.writebacks", &c.CoherenceWritebacks),
		row("heap.allocs", &c.HeapAllocs),
		row("heap.frees", &c.HeapFrees),
		row("heap.bytes", &c.HeapBytesAllocated),
	}
}
