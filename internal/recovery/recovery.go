// Package recovery implements the post-crash procedure for SLPMT
// transactions and the crash-injection campaign that validates it.
//
// Recovery runs in three phases over the durable image (the ADR crash
// snapshot):
//
//  1. Hardware log application. The log header identifies the in-flight
//     transaction: an ACTIVE undo log is applied in reverse, restoring
//     every logged word to its pre-transaction value (idempotent;
//     speculative records are no-ops). A COMMITTED redo log is replayed
//     forward. Anything else means the crash fell between transactions.
//  2. Application fix-up (§IV): the structure's own recovery repairs
//     log-free and lazily persistent data — rebuilding derivable fields
//     (rbtree parent pointers), re-executing published moves (hashtable
//     rehash, heap growth), and ignoring scribbles in unreachable
//     memory.
//  3. Heap reconstruction: a reachability walk from the roots marks the
//     live blocks; the allocator is rebuilt with everything else free —
//     the garbage collection the paper prescribes for memory leaked by
//     interrupted transactions (Pattern 1 recovery).
package recovery

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// Report summarizes one recovery run.
type Report struct {
	// LogSeq and LogState describe the hardware log at the crash.
	LogSeq   uint64
	LogState uint64
	// Mode is the logging mode found in the header.
	Mode uint64
	// LogEpoch is the epoch counter found in the header (zero for
	// legacy per-transaction streams).
	LogEpoch uint64
	// RecordsApplied counts log records applied (undo reverted or redo
	// replayed).
	RecordsApplied int
	// Heap is the allocator-reconstruction report.
	Heap txheap.RebuildReport
}

// ApplyLog performs phase 1 on the image of a single-core machine: undo
// records of an active transaction are applied in reverse; redo records
// of a committed transaction are replayed in order.
func ApplyLog(img *pmem.Image) (*Report, error) {
	return new(verifier).applyLogs(img, []mem.Layout{mem.DefaultLayout(img.Size())})
}

// verifier is the host state of running, recovering and verifying
// crash points, kept from one point to the next so that a sweep over
// many crash points allocates it once: the cluster the runs execute on
// and the image their crash snapshots fill, the completed-op list, the
// layouts and heap handles of the machine, phase 1's raw-log, record
// and unit buffers, and the oracle map and undo slice the campaign
// checks a recovered image against. Every recovery entry point runs
// through it; a one-shot caller uses a fresh one. A verifier serves
// one campaign configuration (its platform is built for it), and so
// the images of one machine shape (image size, cores, sockets). Not
// safe for concurrent use: a serial sweep owns one, and a parallel
// sweep gives each worker its own.
type verifier struct {
	cl   *slpmt.Cluster // nil until the first run; see execute
	img  *pmem.Image    // the last run's image, reused by the next
	done []int          // see runInfo.done

	layouts []mem.Layout   // nil until the first recovery
	heaps   []*txheap.Heap // nil until the first rebuild

	// Phase 1 buffers. records view raw and units view records; each
	// buffer only grows within an image, and growing copies it and
	// leaves the old array as it was, so earlier views stay valid.
	raw   []byte          // every core's log prefix, back to back
	recs  []logfmt.Record // every core's parsed records
	units []logUnit
	rep   Report

	oracle map[uint64][]byte // see oracleMap
	undo   []ycsb.MixOp      // see verifyPrefix
}

// logUnit is one parsed application unit: a whole per-transaction log
// (legacy W=1 streams) or one transaction's slice of an epoch stream,
// cut at its boundary record. Units are ordered across cores by the
// boundary's cluster-global sequence when present, falling back to
// (epoch, header seq) for legacy streams. recs views the records its
// region parsed into the verifier's record buffer.
type logUnit struct {
	epoch, seq uint64
	gseq       uint64 // boundary record's global sequence
	hasG       bool   // unit was cut at a boundary record
	undo       bool
	recs       []logfmt.Record
}

// compareUnits orders units for application: redo units replay
// forward in ascending order, undo units revert in descending order
// (the caller walks the sorted slice backwards).
func compareUnits(u, v logUnit) int {
	if u.hasG && v.hasG {
		return cmp.Compare(u.gseq, v.gseq)
	}
	if u.epoch != v.epoch {
		return cmp.Compare(u.epoch, v.epoch)
	}
	return cmp.Compare(u.seq, v.seq)
}

// apply writes the unit's records into the image: redo units replay
// forward, undo units revert in reverse record order. Returns the
// record count.
func (u *logUnit) apply(img *pmem.Image) int {
	n := 0
	if u.undo {
		for i := len(u.recs) - 1; i >= 0; i-- {
			if logfmt.IsBoundary(u.recs[i]) {
				continue
			}
			img.Write(u.recs[i].Addr, u.recs[i].Data)
			n++
		}
	} else {
		for _, r := range u.recs {
			if logfmt.IsBoundary(r) {
				continue
			}
			img.Write(r.Addr, r.Data)
			n++
		}
	}
	return n
}

// splitUnits cuts an epoch-stream region into per-transaction units at
// its boundary records and appends them to units. Each unit views the
// records after its boundary up to the next one. Records ahead of the
// first boundary (none are expected: every grouped transaction opens
// with one) form a legacy-keyed unit so they are still applied.
func splitUnits(units []logUnit, recs []logfmt.Record, hdr logfmt.Header, undo bool) []logUnit {
	open := logUnit{epoch: hdr.Epoch, seq: hdr.Seq, undo: undo}
	lo := 0 // first record of the open unit
	for i, r := range recs {
		if !logfmt.IsBoundary(r) {
			continue
		}
		if open.hasG || i > lo {
			open.recs = recs[lo:i]
			units = append(units, open)
		}
		open = logUnit{epoch: hdr.Epoch, undo: undo, gseq: logfmt.BoundarySeq(r), hasG: true}
		lo = i + 1
	}
	if open.hasG || len(recs) > lo {
		open.recs = recs[lo:]
		units = append(units, open)
	}
	return units
}

// readLog copies the first n bytes of a core's log area onto the end of
// v.raw and returns them.
func (v *verifier) readLog(img *pmem.Image, layout mem.Layout, n uint64) []byte {
	start := len(v.raw)
	v.raw = slices.Grow(v.raw, int(n))[:start+int(n)]
	raw := v.raw[start:]
	img.Read(layout.LogBase, raw)
	return raw
}

// parseLogRegion decodes one core's hardware log, addressed by its
// layout, and appends its application units to v.units (none when the
// log demands no action). ent is the core's group-descriptor entry
// (the zero value for solo machines, whose descriptor line was never
// written).
//
// A header with CommittedTo at or beyond the record area marks an
// epoch (group-commit) stream. The stream's committed boundary B is
// the larger of the header's CommittedTo and — when the descriptor
// entry carries the header's epoch — the descriptor boundary: grouped
// closes persist the descriptor FIRST and catch the header up after,
// so a crash between the two leaves the header a close behind. The
// committed region [RecordsStart, B) holds whole closed epochs, the
// open region [B, Watermark) the in-flight suffix. Undo streams
// revert the open suffix (the committed region's data persisted
// before its commit point and needs no replay); redo streams replay
// the committed region — a forced close may leave logged lines
// volatile when they are shared with a still-running transaction,
// relying on exactly this replay. Either way an epoch is recovered
// wholesale or not at all, and regions are cut into per-transaction
// units at their boundary records so cross-core application can run
// in exact global order.
//
// CommittedTo of zero is a legacy per-transaction stream and keeps the
// original semantics: reverse an ACTIVE undo log, replay a COMMITTED
// redo log.
func (v *verifier) parseLogRegion(img *pmem.Image, layout mem.Layout, ent logfmt.GroupEntry) (Report, error) {
	var line [logfmt.RecordsStart]byte
	img.Read(layout.LogBase, line[:])
	hdr := logfmt.DecodeHeader(line[:])
	rep := Report{LogSeq: hdr.Seq, LogState: hdr.State, Mode: hdr.Mode, LogEpoch: hdr.Epoch}
	if hdr.Magic != logfmt.Magic {
		// Never initialized: fresh image, nothing to do.
		return rep, nil
	}
	boundary := hdr.CommittedTo
	if uint64(ent.Epoch) == hdr.Epoch && uint64(ent.Boundary) > boundary {
		boundary = uint64(ent.Boundary)
	}
	// Every parse below stops at the watermark or the boundary, so only
	// that prefix of the log area is copied out. A bound past the area
	// keeps the whole area, so the parsers still report it.
	raw := v.readLog(img, layout, min(layout.LogSize, max(hdr.Watermark, boundary, logfmt.RecordsStart)))
	first := len(v.recs)
	var err error
	undo := false
	if hdr.CommittedTo >= logfmt.RecordsStart {
		switch {
		case hdr.Mode == logfmt.ModeUndo && hdr.Watermark > boundary:
			v.recs, err = logfmt.AppendRegion(v.recs, raw, boundary, hdr.Watermark)
			undo = true
		case hdr.Mode == logfmt.ModeRedo && boundary > logfmt.RecordsStart:
			v.recs, err = logfmt.AppendRegion(v.recs, raw, logfmt.RecordsStart, boundary)
		default:
			return rep, nil
		}
		if err != nil {
			return rep, fmt.Errorf("recovery: %w", err)
		}
		v.units = splitUnits(v.units, v.recs[first:], hdr, undo)
		return rep, nil
	}
	switch {
	case hdr.State == logfmt.StateActive && hdr.Mode == logfmt.ModeUndo:
		v.recs, err = logfmt.AppendRecords(v.recs, raw, hdr.Seq)
		undo = true
	case hdr.State == logfmt.StateCommitted && hdr.Mode == logfmt.ModeRedo:
		v.recs, err = logfmt.AppendRecords(v.recs, raw, hdr.Seq)
	default:
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("recovery: %w", err)
	}
	v.units = append(v.units, logUnit{seq: hdr.Seq, undo: undo, recs: v.recs[first:]})
	return rep, nil
}

// groupDesc reads the group-commit descriptor line from the image.
func groupDesc(img *pmem.Image, layout mem.Layout) [logfmt.MaxGroupCores]logfmt.GroupEntry {
	var line [mem.LineSize]byte
	img.Read(layout.GroupDesc(), line[:])
	return logfmt.DecodeGroupDesc(line[:])
}

// applyLogs is phase 1 for an image taken from a machine with the given
// per-core layouts: every core's private hardware log is parsed against
// the shared group descriptor, the resulting per-transaction units are
// merged by their boundary records' cluster-global sequence (legacy
// streams fall back to (epoch, header seq)), and applied — redo units
// replay forward in global commit order, undo units revert in reverse
// global commit order. The global order matters: inside a commit
// window, transactions on different cores interleave writes to shared
// lines, and only applying their records in exact global order
// restores every word to its last group-committed value. The report
// carries core 0's header fields and the record total across all logs;
// it lives in v and is valid until v's next recovery.
func (v *verifier) applyLogs(img *pmem.Image, layouts []mem.Layout) (*Report, error) {
	desc := groupDesc(img, layouts[0])
	v.raw, v.recs, v.units = v.raw[:0], v.recs[:0], v.units[:0]
	for i, layout := range layouts {
		var ent logfmt.GroupEntry
		if i < logfmt.MaxGroupCores {
			ent = desc[i]
		}
		r, err := v.parseLogRegion(img, layout, ent)
		if i == 0 || err != nil {
			v.rep = r
		}
		if err != nil {
			return &v.rep, fmt.Errorf("recovery: core %d log: %w", i, err)
		}
	}
	slices.SortStableFunc(v.units, compareUnits)
	for i := range v.units {
		if !v.units[i].undo {
			v.rep.RecordsApplied += v.units[i].apply(img)
		}
	}
	for i := len(v.units) - 1; i >= 0; i-- {
		if v.units[i].undo {
			v.rep.RecordsApplied += v.units[i].apply(img)
		}
	}
	return &v.rep, nil
}

// RecoverSharded runs the full three-phase recovery for a workload's
// structure over an image taken from a machine with the given core and
// socket counts: phase 1 applies every core's log (applyLogs), phase 2
// runs the structure's fix-up, and phase 3 rebuilds the allocator from
// the reachability scan as the machine's per-core heap handles — each
// arena of a multi-socket layout reconciling its own reachable extents
// with the durable prefix. A reachability scan the allocator cannot
// rebuild from (overlapping extents, or one outside the heap) is a
// recovery failure. Returns the report and one heap handle per core,
// all sharing the rebuilt spans.
func RecoverSharded(img *pmem.Image, w workloads.Recoverable, cores, sockets int) (*Report, []*txheap.Heap, error) {
	return new(verifier).recover(img, w, cores, sockets)
}

// recover is RecoverSharded on v's buffers. The layouts and heap
// handles are made on the first call and kept; kept handles are reset
// before the rebuild, so they come out exactly as fresh ones would.
// The report and the handles are valid until v's next recovery.
func (v *verifier) recover(img *pmem.Image, w workloads.Recoverable, cores, sockets int) (*Report, []*txheap.Heap, error) {
	if v.layouts == nil {
		v.layouts = mem.MultiLayoutSockets(img.Size(), cores, sockets)
	}
	rep, err := v.applyLogs(img, v.layouts)
	if err != nil {
		return rep, nil, err
	}
	if err := w.Recover(img); err != nil {
		return rep, nil, fmt.Errorf("recovery: structure fix-up: %w", err)
	}
	reach, err := w.Reach(img)
	if err != nil {
		return rep, nil, fmt.Errorf("recovery: reachability: %w", err)
	}
	if v.heaps == nil {
		v.heaps = txheap.New(v.layouts, nil, 0)
	} else {
		txheap.Reset(v.heaps)
	}
	rep.Heap, err = txheap.Rebuild(v.heaps, reach)
	// Rebuild keeps no reference to the scan, so its slice goes back to
	// the workloads' free list for the next point's Reach.
	workloads.PutReach(reach)
	if err != nil {
		return rep, nil, fmt.Errorf("recovery: heap rebuild: %w", err)
	}
	return rep, v.heaps, nil
}
