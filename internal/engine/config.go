// Package slpmt implements the transaction engine of the paper: hardware
// persistent-memory transactions with selective logging (storeT),
// fine-grain word-level logging through a tiered coalescing log buffer,
// and lazy persistency tracked by working-set signatures and circular
// 2-bit transaction IDs.
//
// The engine sits between the workload-facing API and the machine layer:
// workloads issue Begin/Load/Store/StoreT/Commit/Abort; the engine
// decides what to log, when to persist, and in which order, and drives
// the machine (caches + WPQ) accordingly. One Engine instance models the
// SLPMT hardware of one core; alternative hardware designs (the paper's
// FG baseline, ATOM, EDE) are the same engine under different Configs —
// see the schemes package for the named configurations of §VI-C.
package engine

import (
	"fmt"

	"github.com/persistmem/slpmt/internal/isa"
)

// Granularity selects the logging granularity.
type Granularity uint8

const (
	// Word logs 8-byte words (fine-grain logging, §III-B).
	Word Granularity = iota
	// Line logs whole 64-byte cache lines (ATOM and the Figure 9
	// line-granularity SLPMT configuration).
	Line
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	if g == Word {
		return "word"
	}
	return "line"
}

// LogMode selects undo or redo logging (Figure 4 ordering).
type LogMode uint8

const (
	// Undo logs old values; log records must persist before their data
	// lines, and log-free lines may persist at any time.
	Undo LogMode = iota
	// Redo logs new values; log-free lines must persist before the log
	// commits, and logged data lines persist only after the commit
	// record.
	Redo
)

// String implements fmt.Stringer.
func (m LogMode) String() string {
	if m == Undo {
		return "undo"
	}
	return "redo"
}

// BufferPolicy selects the hardware path between log creation and PM.
type BufferPolicy uint8

const (
	// BufferTiered uses the four-tier coalescing log buffer (§III-B2) —
	// the FG baseline, SLPMT, and (degenerately, since its records are
	// always line-sized) ATOM.
	BufferTiered BufferPolicy = iota
	// BufferDirect flushes each record as it is produced, with only a
	// single staging slot for merging immediately adjacent records —
	// the EDE configuration, which "coalesces as much as possible" but
	// has no hardware log buffer.
	BufferDirect
)

// String implements fmt.Stringer.
func (p BufferPolicy) String() string {
	if p == BufferTiered {
		return "tiered"
	}
	return "direct"
}

// Config selects the hardware design the engine models.
type Config struct {
	// Name labels the scheme in reports.
	Name string
	// Caps selects which storeT semantics are honoured (Table I): the
	// FG baseline honours neither; SLPMT honours both.
	Caps isa.Caps
	// Granularity is the logging granularity.
	Granularity Granularity
	// Mode selects undo or redo logging.
	Mode LogMode
	// Buffer selects the log path.
	Buffer BufferPolicy
	// Speculative enables the §III-B1 optimization: on an L1 eviction,
	// create log records for the unlogged words of a partially logged
	// 32-byte group so that the folded L2 log bit is preserved.
	Speculative bool
	// ComputeCyclesPerOp adds a fixed compute cost per Load/Store,
	// modelling the non-memory work of the workload (the knob that
	// makes compute-heavy structures like kv-rtree show diluted
	// speedups, §VI-E).
	ComputeCyclesPerOp uint64
	// CommitWindow is the group-commit window W: commits accumulate in
	// an open epoch and the ordering persists (watermark sync, data
	// flush, commit marker) are issued once per W transactions instead
	// of per transaction. 0 or 1 selects the per-transaction protocol,
	// which is bit-exact with the pre-epoch engine.
	CommitWindow int
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Granularity != Word && c.Granularity != Line {
		return fmt.Errorf("engine: invalid granularity %d", c.Granularity)
	}
	if c.Mode != Undo && c.Mode != Redo {
		return fmt.Errorf("engine: invalid log mode %d", c.Mode)
	}
	if c.Buffer != BufferTiered && c.Buffer != BufferDirect {
		return fmt.Errorf("engine: invalid buffer policy %d", c.Buffer)
	}
	if c.Speculative && c.Granularity != Word {
		return fmt.Errorf("engine: speculative logging requires word granularity")
	}
	if c.Buffer == BufferDirect && c.Mode == Redo {
		// The direct sink takes a record's payload when the record is
		// created, before the store writes memory, so a redo record
		// would hold the old value and replay would undo the commit.
		return fmt.Errorf("engine: the direct log path supports undo logging only")
	}
	if c.CommitWindow < 0 {
		return fmt.Errorf("engine: invalid commit window %d", c.CommitWindow)
	}
	return nil
}

// String implements fmt.Stringer.
func (c Config) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("%s/%s/%s/caps=%s", c.Granularity, c.Mode, c.Buffer, c.Caps)
}

// Transaction-ID space: 2 bits per cache line (§III-C2).
const (
	// NumTxIDs is the number of concurrently trackable transactions.
	NumTxIDs = 4
	// NoTxID marks a cache line not owned by any tracked transaction.
	// Cache lines store IDs 0..NumTxIDs-1; the engine reserves the
	// value below for "no transaction" in its own bookkeeping and never
	// assigns it to a line... except that freshly fetched lines have
	// TxID 0, which collides with transaction ID 0. The engine
	// disambiguates by consulting its retained-transaction table: a
	// TxID only triggers lazy persistence if a retained transaction
	// currently owns it.
	NoTxID = 0xFF
)

// NumSignatures is the number of working-set signatures (one per
// transaction ID; 4 × 2048 bits = 1 KiB, §III-D).
const NumSignatures = NumTxIDs
