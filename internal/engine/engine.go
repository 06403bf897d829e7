package engine

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/freelist"
	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logbuf"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/signature"
	"github.com/persistmem/slpmt/internal/trace"
)

// Write-set entries (txState.ws values). The low byte holds the line's
// classes (a line with any logged word is a logged line; Figure 4
// orders persists by these classes) and its lazy bit: set while the
// line's persist bit is clear after a lazy storeT, so Commit defers it
// (§III-C1). A lazy log-free store to a line the write set does not
// hold goes to the transaction's lazy list instead (txState.lazy). The
// high byte is the line's logged-word mask: the words this transaction
// has created records for (bit 0 alone under line granularity). It has
// the shape of the hardware's per-line log bitmap, but unlike the
// cache's LogBits it is not lost when the line drops to L3, so a
// re-logged word counts as a duplicate.
const (
	wsLogged    = 1 << 0
	wsLogFree   = 1 << 1
	wsLazy      = 1 << 2
	wsWordShift = 8
)

// lazyDone marks a retained lazy line that reached PM by natural
// writeback: bit 0 of the line's lazy-list entry (see lazyEntry).
const lazyDone = 1

// minLazyCap is the capacity a transaction's lazy list first grows to.
const minLazyCap = 16

// lazyLists holds the grown lazy lists of every engine in the process.
// Hashtable's rehash moves every node lazily, so one transaction retains
// thousands of lines, and each fresh platform, each core that rehashes,
// would regrow its list from minLazyCap by doubling. A list of
// minLazyCap entries never enters it (it stays in its engine's
// lazyPool), so a transaction of at most minLazyCap lazy lines takes no
// lock. It keeps a list of up to 64 Ki entries (256 KiB): the last
// rehash of a 4,000-insert hashtable retains 22,537.
var lazyLists = freelist.List[[]uint32]{Keep: 1 << 16, First: minLazyCap}

// lazyEntry is a lazy line's list entry: its line number
// shifted left by one, leaving bit 0 for lazyDone, so a marked entry
// sorts where the unmarked one did and the list stays sorted. PM is at
// most 4 GiB (pmem.New), so a line number needs 26 bits.
func lazyEntry(line mem.Addr) uint32 { return uint32(line>>mem.LineShift) << 1 }

// lazyLine returns the line address of a lazy-list entry.
func lazyLine(en uint32) mem.Addr { return mem.Addr(en>>1) << mem.LineShift }

// retainedTx is a committed transaction whose lazily persistent data is
// still volatile: its working-set signature stays live until every lazy
// line has reached PM (§III-C).
type retainedTx struct {
	id  uint8 // transaction ID (0..NumTxIDs-1)
	seq uint64
	sig *signature.Signature
	// lazy holds the lazy lines' entries (lazyEntry) in ascending
	// order; an entry marked lazyDone has already reached PM.
	lazy []uint32
}

// txState is the engine's view of the currently executing transaction.
// Its lines are split between two sets. ws holds every line a logged or
// eager store touched, and every line already persist-marked, with its
// class bits. lazy holds the lines the transaction only stored lazily
// and log-free (§III-C1): they need no class bits, no logged-word mask
// and no persist, so one lazyEntry each, appended in store order (a
// repeat of the last entry skipped), is all they cost. A line in both
// is the write set's. Commit settles the list into the retained
// transaction's address-ordered lazy list (settleLazy).
type txState struct {
	active bool
	id     uint8
	seq    uint64
	sig    *signature.Signature
	ws     lineSet  // write set: line -> ws class bits | wsLazy | logged-word mask<<wsWordShift
	lazy   []uint32 // lazy log-free lines absent from ws (lazyEntry values, store order)
}

// addLazy appends the line to the running transaction's lazy list
// unless it repeats the last entry.
//
//slpmt:noalloc
func (e *Engine) addLazy(line mem.Addr) {
	t := &e.cur
	en := lazyEntry(line)
	n := len(t.lazy)
	if n > 0 && t.lazy[n-1] == en {
		return
	}
	if n == cap(t.lazy) {
		e.growLazy()
	}
	t.lazy = append(t.lazy, en) //slpmt:noalloc-ok: growLazy made room, so this never reallocates
}

// growLazy moves the running transaction's full lazy list into a
// larger one: a new list of minLazyCap entries when it has none, the
// largest grown list of lazyLists, or one of twice the capacity
// (freelist.Grow). A list of minLazyCap entries it replaces goes to
// lazyPool, so the engine keeps as many first lists as it had; a
// larger one it replaces is dropped, and the list that replaced it
// goes back to lazyLists when its retained transaction drains.
//
//go:noinline
func (e *Engine) growLazy() {
	old := e.cur.lazy
	e.cur.lazy = freelist.Grow(&lazyLists, old)
	if cap(old) == minLazyCap {
		e.lazyPool = append(e.lazyPool, old[:0])
	}
}

// releaseLazy hands back a drained transaction's lazy list: a first
// list to the engine's lazyPool, a grown one to lazyLists.
func (e *Engine) releaseLazy(l []uint32) {
	if cap(l) == minLazyCap {
		e.lazyPool = append(e.lazyPool, l[:0])
		return
	}
	freelist.PutSlice(&lazyLists, l)
}

// lineID encodes a transaction ID into the cache-line TxID field;
// 0 means "no owner" (freshly fetched lines), so IDs are stored +1.
func lineID(id uint8) uint8 { return id + 1 }

// Engine models the SLPMT hardware of one core (or, under other
// Configs, the FG/ATOM/EDE designs of §VI-C). Not safe for concurrent
// use.
type Engine struct {
	cfg  Config
	m    *machine.Core
	w    *logWriter
	sink logSink

	sigs     [NumSignatures]signature.Signature
	cur      txState
	retained []retainedTx // FIFO, oldest first
	nextID   uint8
	seq      uint64

	// suppressed records lines whose L3 writeback was blocked by the
	// redo-mode filter; they must be force-persisted at commit.
	suppressed map[mem.Addr]struct{}

	// Group-commit state (CommitWindow > 1). An epoch spans up to
	// CommitWindow committed transactions in one contiguous slice of
	// the log stream; their ordering persists (watermark sync,
	// durability barrier, data flush, commit marker) are issued once at
	// the epoch close. epochPending stays empty below W=2, so every
	// lookup on the per-transaction paths returns at its first check.
	epoch        uint64 // current epoch counter (header stamp)
	epochOpen    bool   // an epoch is accepting commits
	epochTxns    int    // transactions committed into the open epoch
	epochLastSeq uint64 // seq of the youngest committed transaction
	txnStartOff  uint64 // running transaction's first record offset
	// epochPending accumulates the committed transactions' eager
	// write-set lines (class bits ORed) until the close's data flush.
	// Its entries with wsLogged set are the non-lazy logged lines,
	// which gate evictions (undo: unsynced records; redo: writeback
	// suppression).
	epochPending lineSet
	// group coordinates multi-core closes: non-nil only on clustered
	// engines with CommitWindow > 1, where per-core epochs must commit
	// atomically as a group (see EpochGroup).
	group *EpochGroup
	// onEpochClose fires after an epoch's commit point is durable —
	// the facade hooks the heap's epoch-quarantined frees here.
	onEpochClose func()
	// gseqBuf is the boundary record's payload scratch (the writer
	// copies it out immediately; a field keeps Begin allocation-free).
	gseqBuf [8]byte

	// logRaw and logRecs are ownRecords' buffers, kept across calls so
	// an abort reads back its log without allocating.
	logRaw  []byte
	logRecs []logfmt.Record

	// lazyPool recycles the engine's first lazy lists, of minLazyCap
	// entries: Commit hands the running transaction's list to its
	// retainedTx entry and takes the next transaction's from here, and a
	// drain, a Reset or a growLazy that replaces a first list returns it,
	// so a steady stream of small lazy transactions allocates no list
	// and takes no lock. Grown lists go back to the process-wide
	// lazyLists instead (releaseLazy).
	lazyPool [][]uint32

	// recBuf is the one payload buffer every record the engine creates
	// or refreshes is read into (logStore, onL1Demote, refreshRecord).
	// One buffer suffices because no payload lives in it for long: the
	// log buffer's Insert copies a store-time record into its own tier
	// storage before any drain can run refreshRecord, and the log
	// writer copies a refreshed record into its staging bytes before the
	// next refresh. A direct sink appends an undo record, which refresh
	// leaves as it is, the same way.
	recBuf [mem.LineSize]byte

	// marks is the commit walks' bitmap over the core's private-cache
	// scan positions (see walk).
	marks scanMarks
	// abortedLines holds, per transaction ID, the write-set lines an
	// abort left cached with their metadata (log-free lines keep their
	// updates and persist bits). The next commit under the same ID
	// walks them too, as the commit scan matches them by TxID.
	abortedLines [NumTxIDs][]mem.Addr
}

// New wires an engine to a machine. The machine's eviction hooks are
// claimed by the engine.
func New(m *machine.Core, cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{
		cfg:        cfg,
		m:          m,
		suppressed: make(map[mem.Addr]struct{}),
		marks:      scanMarks{bits: make([]uint64, (m.PrivateLines()+63)/64)},
	}
	e.w = newLogWriter(m)
	refresh := e.refreshRecord
	if cfg.Buffer == BufferTiered {
		e.sink = newTieredSink(e.w, refresh)
	} else {
		e.sink = newDirectSink(e.w, refresh)
	}
	m.OnL2Evict = e.onL2Evict
	m.OnL1Demote = e.onL1Demote
	m.OnL3Writeback = e.onL3Writeback
	if cfg.Mode == Redo {
		m.WritebackFilter = e.writebackFilter
	}
	if cfg.CommitWindow > 1 {
		m.OnCoherenceTake = e.onCoherenceTake
	}
	e.Reset()
	return e
}

// Reset returns the engine to the state New left it in: no transaction
// running or retained, no epoch open, sequence numbers and transaction
// IDs restarting, the log buffer empty, no scan position marked (a
// crash inside a commit walk leaves the marks it had not reached). Its
// buffers (the line sets' first buffers, the running transaction's lazy
// list, log staging, lazy-list pool, walk bitmap) are kept, and so is
// its wiring: the hooks it installed on its core, its EpochGroup, and
// its epoch-close hook.
// Grown line sets and lazy lists go back to their process-wide lists.
// The core and the group are reset by their owners.
func (e *Engine) Reset() {
	for i := range e.retained {
		e.releaseLazy(e.retained[i].lazy)
	}
	clear(e.suppressed)
	e.w.wipe()
	e.sink.wipe()
	ws, pending, aborted, marks := e.cur.ws, e.epochPending, e.abortedLines, e.marks
	ws.reset()
	pending.reset()
	marks.reset()
	for i := range aborted {
		aborted[i] = aborted[i][:0]
	}
	*e = Engine{
		cfg:          e.cfg,
		m:            e.m,
		w:            e.w,
		sink:         e.sink,
		cur:          txState{ws: ws, lazy: e.cur.lazy[:0]},
		retained:     e.retained[:0],
		suppressed:   e.suppressed,
		epochPending: pending,
		group:        e.group,
		onEpochClose: e.onEpochClose,
		logRaw:       e.logRaw[:0],
		logRecs:      e.logRecs[:0],
		lazyPool:     e.lazyPool,
		marks:        marks,
		abortedLines: aborted,
	}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Core returns the underlying core.
func (e *Engine) Core() *machine.Core { return e.m }

// Seq returns the current transaction sequence number.
func (e *Engine) Seq() uint64 { return e.seq }

// grouped reports whether group commit (epoch batching) is active.
func (e *Engine) grouped() bool { return e.cfg.CommitWindow > 1 }

// refreshRecord gives a record its final payload at spill time: undo
// records keep the old value captured at store time; redo records are
// refreshed to the latest volatile value so replay installs the newest
// data.
func (e *Engine) refreshRecord(r logbuf.Record) logbuf.Record {
	if e.cfg.Mode == Undo {
		return r
	}
	data := e.recBuf[:len(r.Data)]
	e.m.ReadMem(r.Addr, data)
	return logbuf.Record{Addr: r.Addr, Data: data, Speculative: r.Speculative}
}

// Begin starts a durable transaction: allocates a transaction ID (forcing
// lazy persists of a recycled ID's owner, §III-C2) and initializes the
// durable log header so recovery can identify an in-flight transaction.
//
//slpmt:noalloc
func (e *Engine) Begin() {
	if e.cur.active {
		panic("engine: nested transactions are not supported") //slpmt:noalloc-escape-ok: misuse panic; a constant message needs no allocation
	}
	if e.group != nil {
		// Clustered group commit numbers transactions from the shared
		// sequence: boundary records carry these values, and recovery
		// relies on them to order interleaved cross-core records.
		e.seq = e.group.nextSeq()
	} else {
		e.seq++
	}
	e.m.Trace(trace.KTxBegin, 0, e.seq)
	id := e.nextID
	e.nextID = (e.nextID + 1) % NumTxIDs
	// Circular ID reuse: if a retained transaction still owns this ID,
	// persist its lazy data (and that of every earlier transaction).
	for i := range e.retained {
		if e.retained[i].id == id {
			e.m.Stats.TxIDRecycles++
			e.persistRetainedThrough(i)
			break
		}
	}
	// A forced drain mid-transaction closes the open epoch and reopens
	// it around the running transaction without resetting the log
	// stream, so a chain of them can grow one stream past the log
	// area. Once the open stream holds more than half the area, the
	// epoch closes in full here, between transactions, as a harness's
	// FinishEpoch would, and the next transaction opens a new stream.
	if e.epochOpen && e.w.nextOff > e.w.size/2 {
		e.forceCloseEpoch()
	}
	// Reuse the write set: it resets in O(1), and a set an earlier
	// transaction grew goes back to lineSets.
	e.cur.active = true
	e.cur.id = id
	e.cur.seq = e.seq
	e.cur.sig = &e.sigs[id]
	e.cur.ws.reset()
	e.cur.lazy = e.cur.lazy[:0]
	e.cur.sig.Clear()
	mode := e.logMode()
	if e.grouped() {
		e.beginEpochTxn(mode)
		e.m.Stats.TxBegins++
		return
	}
	// The fresh header resets the watermark to the empty stream, so
	// recovery can never attribute a previous transaction's records to
	// this one. Posted: durable at enqueue under ADR.
	e.m.PushAsync()
	e.w.reset(e.seq)
	e.txnStartOff = e.w.nextOff
	e.w.writeHeader(logfmt.Header{
		Magic:     logfmt.Magic,
		Seq:       e.seq,
		State:     logfmt.StateActive,
		Mode:      mode,
		Watermark: logfmt.RecordsStart,
	})
	e.m.PopAsync()
	e.m.Stats.TxBegins++
}

// beginEpochTxn threads a new transaction into the core's epoch
// stream. The first transaction of an epoch opens it with one posted
// header write (the only per-epoch header persist until the close);
// later transactions pay no header write at all — they spill the
// previous transaction's buffered records and remember where their own
// records start. The spill keeps the stream partitioned by
// transaction, which the forced-close split and the abort path rely
// on: every record below txnStartOff belongs to an earlier transaction
// of the window.
func (e *Engine) beginEpochTxn(mode uint64) {
	e.m.PushAsync()
	if e.epochOpen {
		e.sink.spill()
	} else {
		e.epoch++
		e.epochOpen = true
		e.epochTxns = 0
		e.w.reset(e.seq)
		e.w.writeHeader(logfmt.Header{
			Magic:       logfmt.Magic,
			Seq:         e.seq,
			State:       logfmt.StateActive,
			Mode:        mode,
			Watermark:   logfmt.RecordsStart,
			Epoch:       e.epoch,
			CommittedTo: logfmt.RecordsStart,
		})
	}
	e.w.seq = e.seq
	e.txnStartOff = e.w.nextOff
	// Every grouped transaction opens with a boundary record: an
	// 8-byte payload carrying its sequence number at the sentinel
	// address. The stream stays partitioned by transaction even after
	// the log bits blur across the window, and recovery can order the
	// units of different cores exactly (the group numbers transactions
	// globally). txnStartOff points AT the boundary, so the forced-
	// close split and the abort suffix both carry their sentinel.
	binary.LittleEndian.PutUint64(e.gseqBuf[:], e.seq)
	e.w.append(logbuf.Record{Addr: logfmt.BoundaryAddr, Data: e.gseqBuf[:]})
	e.m.PopAsync()
}

// onCoherenceTake runs before a remote core's bus request takes a
// dirty line out of this core's private caches, where the owner's
// coherence writeback would persist the data. Under group commit the
// line may carry values committed into the still-open epoch whose log
// records are not yet covered by the durable watermark (records spill
// only at the next Begin), so the data persist would break the
// epoch-granular log-before-data invariant; the records are made
// durable first — posted writes, since enqueue order is the ADR
// durability order. Redo mode goes further: the take is vetoed by the
// same rule as an L3 writeback (writebackFilter), and the line joins
// the suppressed set that the close force-persists. Installed only
// above W=1; at W=1 commit cleans every logged line before another
// core can take it.
func (e *Engine) onCoherenceTake(addr mem.Addr) bool {
	if e.epochPending.val(addr)&wsLogged != 0 || e.sink.hasLine(addr) {
		e.m.PushAsync()
		e.sink.flushLine(addr)
		e.m.PopAsync()
	}
	return e.writebackFilter(addr)
}

// Load performs a transactional (or, outside a transaction, plain) read
// of len(p) bytes at addr.
func (e *Engine) Load(addr mem.Addr, p []byte) {
	e.m.Stats.Loads++
	e.m.Tick(e.cfg.ComputeCyclesPerOp)
	mem.LineRange(addr, len(p), func(line mem.Addr, off, n int) {
		l := e.m.AccessLine(line, false)
		e.checkLineOwner(l)
		if e.cur.active {
			e.cur.sig.Add(line)
		}
	})
	e.m.ReadMem(addr, p)
}

// LoadU64 reads one little-endian word.
func (e *Engine) LoadU64(addr mem.Addr) uint64 {
	var b [8]byte
	e.Load(addr, b[:])
	v := uint64(0)
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Store performs a store or storeT of p at addr within the current
// transaction (Table I semantics, subject to the scheme's capabilities).
// Outside a transaction the data is written volatile without logging.
func (e *Engine) Store(addr mem.Addr, p []byte, kind isa.Kind, attr isa.Attr) {
	if kind == isa.StoreT {
		e.m.Stats.StoreTs++
	} else {
		e.m.Stats.Stores++
	}
	e.m.Tick(e.cfg.ComputeCyclesPerOp)
	if kind == isa.StoreT {
		e.m.Trace(trace.KStoreT, addr, uint64(len(p)))
	} else {
		e.m.Trace(trace.KStore, addr, uint64(len(p)))
	}
	bits := e.cfg.Caps.ResolveFor(kind, attr)
	off := 0
	mem.LineRange(addr, len(p), func(line mem.Addr, lineOff, n int) {
		a := line + mem.Addr(lineOff)
		e.storeOne(a, p[off:off+n], bits)
		off += n
	})
}

// StoreU64 writes one little-endian word.
func (e *Engine) StoreU64(addr mem.Addr, v uint64, kind isa.Kind, attr isa.Attr) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
	e.Store(addr, b[:], kind, attr)
}

// storeOne handles the part of a store that lies within one cache line.
//
//slpmt:noalloc
func (e *Engine) storeOne(a mem.Addr, data []byte, bits isa.Bits) {
	line := mem.LineAddr(a)
	// Lazy-persistency conflict detection: before updating data in a
	// retained transaction's working set, its lazy lines must persist
	// (§III-C3).
	e.checkStoreConflict(line)

	l := e.m.AccessLine(a, true)
	e.checkLineOwner(l)

	if !e.cur.active {
		// Non-transactional store: volatile write only (the line will
		// reach PM by natural writeback or an explicit persist).
		e.m.WriteMem(a, data)
		return
	}

	// A lazy log-free store (§III-C1) to a line with a clear persist bit
	// that the write set does not hold joins the lazy list: the line
	// needs its owner stamp and signature bit, nothing more. Any other
	// store finds or inserts the line's write-set entry in one probe;
	// nothing inserts into the write set before the entry is written
	// back below.
	var pos int
	if !bits.Log && !bits.Persist && !l.Persist {
		if pos = e.cur.ws.lookup(line); pos < 0 {
			e.addLazy(line)
			l.TxID = lineID(e.cur.id)
			e.cur.sig.Add(line)
			e.m.WriteMem(a, data)
			return
		}
	} else {
		pos = e.cur.ws.find(line)
	}
	ws := e.cur.ws.ents[pos].val()
	if bits.Log {
		prev := e.m.SetCause(profile.CauseLogAppend)
		if e.cfg.Buffer == BufferTiered {
			// The log buffer decouples logging from execution: spills
			// are posted by the buffer engine (§III-B2).
			e.m.PushAsync()
			ws = e.logStore(l, a, len(data), ws)
			e.m.PopAsync()
		} else {
			// No buffer (EDE): log writes leave through the core's
			// store path and feel queue backpressure in program order.
			e.m.PushStream()
			ws = e.logStore(l, a, len(data), ws)
			e.m.PopStream()
		}
		e.m.SetCause(prev)
	}
	if bits.Persist {
		l.Persist = true
		ws &^= wsLazy
	} else if !l.Persist {
		// storeT with lazy set and no earlier eager store to this line:
		// the line is lazily persistent (§III-C1; a later store or
		// eager storeT cancels this, handled above).
		ws |= wsLazy
	}
	l.TxID = lineID(e.cur.id)
	e.cur.sig.Add(line)
	if bits.Log {
		ws |= wsLogged
	} else {
		ws |= wsLogFree
	}
	e.cur.ws.ents[pos] = e.cur.ws.ents[pos].withVal(ws)
	e.m.WriteMem(a, data)
}

// logStore creates the undo/redo records a store requires: the unlogged
// words it touches (word granularity) or the whole line (line
// granularity). Old values are captured before the store's data is
// written. ws is the line's write-set entry; logStore returns it with
// the newly logged words added to its logged-word mask, and counts a
// record for a word already in the mask as a duplicate.
//
//slpmt:noalloc
func (e *Engine) logStore(l *cache.Line, a mem.Addr, size int, ws uint16) uint16 {
	line := mem.LineAddr(a)
	var mask uint8
	if e.cfg.Granularity == Line {
		mask = cache.L1LogMaskFull
	} else {
		mask = mem.WordMask(a, size)
	}
	missing := mask &^ l.LogBits
	if missing == 0 {
		return ws
	}
	logged := uint8(ws >> wsWordShift)
	if e.cfg.Granularity == Line {
		data := e.recBuf[:]
		e.m.ReadMem(line, data)
		e.sink.add(logbuf.Record{Addr: line, Data: data})
		e.m.Trace(trace.KLogAppend, line, mem.LineSize)
		e.m.Stats.LogRecordsCreated++
		if logged&1 != 0 {
			e.m.Stats.LogDuplicates++
		}
		logged |= 1
	} else {
		for w := 0; w < mem.WordsPerLine; w++ {
			bit := uint8(1) << uint(w)
			if missing&bit == 0 {
				continue
			}
			wa := line + mem.Addr(w*mem.WordSize)
			data := e.recBuf[:mem.WordSize]
			e.m.ReadMem(wa, data)
			e.sink.add(logbuf.Record{Addr: wa, Data: data})
			e.m.Trace(trace.KLogAppend, wa, mem.WordSize)
			e.m.Stats.LogRecordsCreated++
			if logged&bit != 0 {
				e.m.Stats.LogDuplicates++
			}
		}
		logged |= missing
	}
	l.LogBits |= mask
	return ws | uint16(logged)<<wsWordShift
}

// checkLineOwner implements the per-access transaction-ID check
// (§III-C3): touching a cache line owned by an earlier transaction that
// still has volatile lazy data forces that data (and all older lazy
// data) to persist.
func (e *Engine) checkLineOwner(l *cache.Line) {
	if l.TxID == 0 {
		return
	}
	if e.cur.active && l.TxID == lineID(e.cur.id) {
		return
	}
	owner := l.TxID - 1
	for i := range e.retained {
		if e.retained[i].id == owner {
			e.m.Stats.TxIDCrossAccess++
			e.persistRetainedThrough(i)
			return
		}
	}
}

// checkStoreConflict implements the signature check (§III-C3): a store
// whose address matches a retained transaction's working set forces that
// transaction's lazy data to persist first.
func (e *Engine) checkStoreConflict(line mem.Addr) {
	last := -1
	for i := range e.retained {
		if e.retained[i].sig.MayContain(line) {
			e.m.Stats.SignatureHits++
			// One event per hit keeps the streamed per-interval count
			// equal to the Stats.SignatureHits delta; arg carries the
			// matched transaction's drain depth (oldest-first index + 1).
			e.m.Trace(trace.KSigHit, line, uint64(i+1))
			last = i
		}
	}
	if last >= 0 {
		e.persistRetainedThrough(last)
	}
}

// CoherenceStore runs the signature check for a store issued by a
// remote core (§III-C3 across cores): the coherence write request is
// visible to every core's SLPMT unit, and a hit against one of this
// engine's retained transactions forces its lazy data to persist before
// the remote store proceeds. The drain is posted on this engine's
// core timeline, like any lazy drain.
func (e *Engine) CoherenceStore(line mem.Addr) {
	e.checkStoreConflict(line)
}

// persistRetainedThrough persists the lazy data of retained transactions
// 0..idx (oldest first, as §III-C2 requires) and releases their IDs and
// signatures.
func (e *Engine) persistRetainedThrough(idx int) {
	// Under group commit a forced drain persists lazy lines whose log
	// records were discarded at commit; those commits must first stop
	// being rollback-able, so the open epoch force-closes before any
	// lazy data lands (the §III-C drains are the "forced drain from a
	// remote conflict" interaction).
	e.forceCloseEpoch()
	// Lazy drains are posted persists off the critical path (§III-C3).
	e.m.Trace(trace.KLazyDrainStart, 0, uint64(idx+1))
	defer e.m.Trace(trace.KLazyDrainEnd, 0, uint64(idx+1))
	prev := e.m.SetCause(profile.CauseLazyDrain)
	defer e.m.SetCause(prev)
	e.m.PushAsync()
	defer e.m.PopAsync()
	for i := 0; i <= idx; i++ {
		r := &e.retained[i]
		// The drain persists the lines still volatile when it starts; a
		// writeback marking one of them mid-drain does not skip it.
		r.lazy = slices.DeleteFunc(r.lazy, func(en uint32) bool { return en&lazyDone != 0 })
		for _, en := range r.lazy {
			if e.m.PersistLine(lazyLine(en)) {
				e.m.Stats.LazyLinePersists++
			} else {
				e.m.Stats.LazyLinesElided++
			}
		}
		r.sig.Clear()
		e.releaseLazy(r.lazy)
		r.lazy = nil
	}
	e.retained = append(e.retained[:0], e.retained[idx+1:]...)
}

// DrainLazy persists every retained transaction's lazy data — the effect
// the paper obtains by running NumTxIDs empty transactions. Harnesses
// call it at the end of the measured region so deferred traffic is
// accounted.
func (e *Engine) DrainLazy() {
	e.forceCloseEpoch()
	if len(e.retained) > 0 {
		e.persistRetainedThrough(len(e.retained) - 1)
	}
}

// RetainedLazyLines returns the number of lazy lines still volatile
// (introspection for tests).
func (e *Engine) RetainedLazyLines() int {
	n := 0
	for i := range e.retained {
		for _, en := range e.retained[i].lazy {
			if en&lazyDone == 0 {
				n++
			}
		}
	}
	return n
}

// onL1Demote implements the speculative-logging optimization (§III-B1):
// before an L1 line's log bits fold to L2 granularity, partially logged
// 32-byte groups are rounded up by logging their remaining words, so the
// folded bit is preserved and re-fetch does not re-log.
func (e *Engine) onL1Demote(l cache.Line) cache.Line {
	if !e.cfg.Speculative || !e.cur.active || l.LogBits == 0 {
		return l
	}
	prev := e.m.SetCause(profile.CauseLogAppend)
	defer e.m.SetCause(prev)
	e.m.PushAsync()
	defer e.m.PopAsync()
	if l.TxID != lineID(e.cur.id) {
		return l
	}
	for g := 0; g < 2; g++ {
		group := uint8(0x0F << uint(4*g))
		got := l.LogBits & group
		if got == 0 || got == group {
			continue
		}
		for w := 4 * g; w < 4*(g+1); w++ {
			bit := uint8(1) << uint(w)
			if l.LogBits&bit != 0 {
				continue
			}
			wa := l.Addr + mem.Addr(w*mem.WordSize)
			data := e.recBuf[:mem.WordSize]
			e.m.ReadMem(wa, data)
			e.sink.add(logbuf.Record{Addr: wa, Data: data, Speculative: true})
			e.m.Stats.SpeculativeRecords++
			l.LogBits |= bit
		}
	}
	return l
}

// onL2Evict is the hardware action when a line leaves the private
// caches: buffered log records for the line are made durable, and (undo
// mode) a persist-bit line is persisted before the eviction (§III-A).
func (e *Engine) onL2Evict(l cache.Line) cache.Line {
	// Eviction handling is background hardware activity.
	e.m.PushAsync()
	defer e.m.PopAsync()
	// A line committed into the open epoch has had its records spilled
	// at the next Begin (log bits already cleared), but the watermark may
	// not cover them yet: sync before the data line can reach PM.
	if l.LogBits != 0 || e.sink.hasLine(l.Addr) || e.epochPending.val(l.Addr)&wsLogged != 0 {
		e.sink.flushLine(l.Addr)
	}
	if !l.Persist || e.redoFenced(l.Addr) {
		// A fenced line stays dirty; its L3 writeback meets the filter.
		return l
	}
	e.m.ForcePersistLine(l.Addr)
	e.m.Stats.EvictLinePersists++
	l.Persist = false
	l.State = cache.Exclusive
	return l
}

// onL3Writeback retires lazy tracking for a line that reached PM by
// natural cache overflow: each retained list finds the line by binary
// search and marks it lazyDone.
func (e *Engine) onL3Writeback(addr mem.Addr) {
	for i := range e.retained {
		lazy := e.retained[i].lazy
		if j, ok := slices.BinarySearch(lazy, lazyEntry(addr)); ok {
			lazy[j] |= lazyDone
		}
	}
}

// txLogged reports whether the running transaction has logged the
// line.
//
//slpmt:noalloc
func (e *Engine) txLogged(la mem.Addr) bool {
	return e.cur.active && e.cur.ws.val(la)&wsLogged != 0
}

// redoFenced is the redo half of Figure 4's ordering: logged data must
// not reach PM before its commit record. That holds for the running
// transaction's logged lines and, under group commit, for the logged
// lines of transactions committed into the still-open epoch, whose
// commit point is the epoch close.
//
//slpmt:noalloc
func (e *Engine) redoFenced(la mem.Addr) bool {
	return e.cfg.Mode == Redo && (e.txLogged(la) || e.epochPending.val(la)&wsLogged != 0)
}

// writebackFilter vetoes a fenced line's writeback (an L3 eviction or
// a remote core's take) and remembers the line, so the commit that
// lifts the fence force-persists it.
//
//slpmt:noalloc
func (e *Engine) writebackFilter(addr mem.Addr) bool {
	if e.redoFenced(addr) {
		e.suppressed[addr] = struct{}{}
		return false
	}
	return true
}

// persistLoggedLine persists a logged data line once its commit record
// is durable; a line whose writeback the filter vetoed is
// force-persisted (it may no longer be privately cached).
//
//slpmt:noalloc
func (e *Engine) persistLoggedLine(la mem.Addr) {
	if _, ok := e.suppressed[la]; ok {
		e.m.ForcePersistLine(la)
		e.m.Stats.EagerLinePersists++
		delete(e.suppressed, la)
	} else if e.m.PersistLine(la) {
		e.m.Stats.EagerLinePersists++
	}
}

// settleLazy turns the running transaction's lazy list into its lazy
// lines, in address order without repeats, and returns it. A listed
// line the write set holds (a later store put it there) leaves the
// list, and its entry gains the wsLogFree class its lazy store gave
// it; the write set's own lazy lines join the list.
func (e *Engine) settleLazy() []uint32 {
	ws := &e.cur.ws
	n := 0
	for _, en := range e.cur.lazy {
		if p := ws.lookup(lazyLine(en)); p >= 0 {
			ws.ents[p] |= wsLogFree
			continue
		}
		e.cur.lazy[n] = en
		n++
	}
	e.cur.lazy = e.cur.lazy[:n]
	for _, en := range ws.ents {
		if en.val()&wsLazy != 0 {
			e.addLazy(en.addr())
		}
	}
	slices.Sort(e.cur.lazy)
	e.cur.lazy = slices.Compact(e.cur.lazy)
	return e.cur.lazy
}

// Commit makes the transaction durable, enforcing the Figure 4 persist
// ordering for the configured log mode, discarding log records of lazily
// persistent lines, and retaining the working-set signature and the
// lazy list if lazy data remains volatile.
func (e *Engine) Commit() {
	if !e.cur.active {
		panic("engine: Commit outside a transaction")
	}
	e.m.Trace(trace.KCommitStart, 0, e.cur.seq)
	// The write set goes into address order here, the order of every
	// later walk of it in this commit, and the lazy list becomes the
	// transaction's lazy lines in address order. Discard buffered records
	// belonging to lazily persistent lines (§III-B2): their data will not
	// persist at commit, so an undo record for them is unnecessary — the
	// data is recoverable anyway.
	e.cur.ws.sortByAddr()
	lazy := e.settleLazy()
	for _, en := range lazy {
		if n := e.sink.discardLine(lazyLine(en)); n > 0 {
			e.m.Stats.LogRecordsDiscarded += uint64(n)
		}
	}
	if e.grouped() {
		e.commitGrouped()
	} else if e.cfg.Mode == Undo {
		e.commitUndo()
	} else {
		e.commitRedo()
	}
	e.abortedLines[e.cur.id] = e.abortedLines[e.cur.id][:0]
	// Retain the working set while lazy data is volatile (§III-C): the
	// settled list goes to the retained transaction, and the next
	// transaction's list comes from the recycle pool.
	if len(lazy) > 0 {
		e.m.Stats.LazyLinesDeferred += uint64(len(lazy))
		for _, en := range lazy {
			e.m.Trace(trace.KLazyDefer, lazyLine(en), e.cur.seq)
		}
		e.retained = append(e.retained, retainedTx{
			id:   e.cur.id,
			seq:  e.cur.seq,
			sig:  e.cur.sig,
			lazy: lazy,
		})
		e.cur.lazy = nil
		if n := len(e.lazyPool); n > 0 {
			e.cur.lazy = e.lazyPool[n-1]
			e.lazyPool = e.lazyPool[:n-1]
		}
	} else {
		e.cur.sig.Clear()
	}
	e.cur.active = false
	e.m.Stats.TxCommits++
	e.m.Trace(trace.KTxCommit, 0, e.cur.seq)
	e.mirrorBufferStats()
	if e.grouped() && e.epochTxns >= e.cfg.CommitWindow {
		e.closeEpoch()
	}
}

// mirrorBufferStats copies the tiered buffer's activity deltas into the
// machine counters so reports see coalescing behaviour.
func (e *Engine) mirrorBufferStats() {
	ts, ok := e.sink.(*tieredSink)
	if !ok {
		return
	}
	s := ts.stats()
	e.m.Stats.LogRecordsCoalesced = s.Coalesced
	e.m.Stats.LogBufferStalls = s.Stalls
}

// syncLog drains the log buffer as one stream charged to log.persist,
// then waits once for the streamed lines' durability (the ordering
// barrier of Figure 4). The barrier charges to the caller's cause
// context.
func (e *Engine) syncLog() {
	prev := e.m.SetCause(profile.CauseLogPersist)
	e.m.PushStream()
	e.sink.drain()
	e.m.PopStream()
	e.m.SetCause(prev)
	e.m.AckBarrier()
}

// logMode is the log header's mode field for the engine's logging mode.
func (e *Engine) logMode() uint64 {
	if e.cfg.Mode == Redo {
		return logfmt.ModeRedo
	}
	return logfmt.ModeUndo
}

// commitUndo: logs -> logged+log-free data lines -> commit record. The
// log drain streams through the buffer's packing engine (no per-line
// acknowledgement; one durability barrier at the end), then the data
// lines are persisted with per-line coherence acknowledgements.
func (e *Engine) commitUndo() {
	// Stage 1: drain the log buffer; the ordering barrier (Figure 4:
	// logs before logged data lines) waits for the streamed lines'
	// completion once, not per line — the commit engine pipelines.
	e.syncLog()
	// Stage 2: persist the marked data lines. The commit walk visits the
	// transaction's private lines in cache-scan order, issuing one
	// coherence-level persist request per line and waiting for its
	// completion — the serialized critical path that lazy persistency
	// takes transactions off of.
	prev := e.m.SetCause(profile.CauseCommitData)
	e.persistMarkedLines()
	e.m.SetCause(prev)
	e.writeCommitMarker()
}

// commitRedo: log-free lines -> logs -> commit record -> logged lines.
func (e *Engine) commitRedo() {
	// 1. Log-free lines must reach PM before the logged data (Fig. 4).
	// Commit sorted the write set by address.
	prev := e.m.SetCause(profile.CauseCommitData)
	for _, en := range e.cur.ws.ents {
		if en.val()&(wsLogged|wsLazy) != 0 {
			continue
		}
		if e.m.PersistLine(en.addr()) {
			e.m.Stats.EagerLinePersists++
		}
	}
	// 2. Redo records (refreshed to final values) and commit marker.
	e.m.SetCause(prev)
	e.syncLog()
	e.writeCommitMarker()
	// 3. Logged data lines (in-place update is now safe).
	prev = e.m.SetCause(profile.CauseCommitData)
	for _, en := range e.cur.ws.ents {
		if en.val()&(wsLogged|wsLazy) != wsLogged {
			continue
		}
		e.persistLoggedLine(en.addr())
	}
	e.m.SetCause(prev)
	clear(e.suppressed)
	e.clearTxMeta()
}

// commitGrouped retires the transaction into the open epoch, deferring
// every ordering persist (watermark sync, durability barrier, data
// flush, commit marker) to the epoch close. Only cache metadata moves:
// log bits clear so the next transaction in the window logs its own
// old/new values for shared lines (making the epoch's record stream
// reversible/replayable as a whole), while persist bits survive until
// the close's data flush. The transaction's eager write-set lines
// accumulate in epochPending with their class bits.
func (e *Engine) commitGrouped() {
	e.txLines(func(l *cache.Line) { l.LogBits = 0 })
	for _, en := range e.cur.ws.ents { // sorted by Commit
		if en.val()&wsLazy != 0 {
			// Lazy lines keep their W=1 contract: no persist at any
			// commit point, records discarded, structure-recoverable.
			continue
		}
		e.epochPending.or(en.addr(), en.val()&(wsLogged|wsLogFree)) // the classes, not the mask
	}
	e.epochTxns++
	e.epochLastSeq = e.cur.seq
}

// forceCloseEpoch seals the open epoch ahead of an operation that
// needs the committed window durable (forced lazy drains, context
// switches, harness durability boundaries). A no-op below W=2 or when
// nothing has committed into the epoch. With a transaction mid-flight
// the stream splits at its first record and the epoch reopens around
// it.
func (e *Engine) forceCloseEpoch() {
	if !e.grouped() || !e.epochOpen || e.epochTxns == 0 {
		return
	}
	e.closeEpoch()
}

// FinishEpoch force-closes the open group-commit epoch, making every
// committed transaction of the window durable. Harnesses call it at
// durability boundaries (end of a setup phase, measured-region edges).
func (e *Engine) FinishEpoch() { e.forceCloseEpoch() }

// SetEpochCloseHook registers f to run after every epoch close, once
// the epoch's commit point is durable. The facade parks the heap's
// committed frees until this point (see txheap.EpochQuarantine):
// released at commit they could be reused — and scribbled with
// log-free stores — inside the same window, while the durable state
// still reaches the old blocks.
func (e *Engine) SetEpochCloseHook(f func()) { e.onEpochClose = f }

// closeEpoch seals the open epoch with the amortized ordering
// sequence of Figure 4 lifted to epoch granularity: one log drain +
// watermark sync, one durability barrier, the committed transactions'
// accumulated data persists, and a single commit-marker header write
// advancing CommittedTo over the whole window. With a transaction
// still running (a forced close) the stream instead splits at its
// first record: the header stays ACTIVE under a fresh epoch number
// with CommittedTo covering exactly the committed prefix, so recovery
// rolls back (undo) or ignores (redo) precisely the in-flight suffix.
// Clustered engines route through the group: cross-core value flow
// inside a window means per-core epochs must become durable together
// or not at all.
func (e *Engine) closeEpoch() {
	if e.group != nil {
		e.group.close(e)
		return
	}
	e.prepareSync()
	e.preparePersist()
	e.finishClose()
}

// prepareSync is the first phase of an epoch close: the window's one
// log drain + watermark sync and durability barrier. In a group close
// EVERY engine syncs before ANY engine persists data — a data line
// can hold words whose only undo records live in a peer's stream (the
// line migrated mid-window), and persisting it while those records
// are short of the peer's watermark would make the words unrecoverable
// if the crash fell in between.
func (e *Engine) prepareSync() {
	prevEpoch := e.m.SetCause(profile.CauseLogEpoch)
	// The close's data walks (preparePersist, finishClose) run in
	// address order.
	e.epochPending.sortByAddr()

	// The window's one drain + sync; the barrier charges to log.epoch
	// (the AckBarrier picks up the active context) so the amortization
	// is visible per-cause next to the per-transaction log.sync bucket.
	e.syncLog()
	e.m.SetCause(prevEpoch)
}

// preparePersist is the second phase of an epoch close: the data
// persists that must precede the epoch's commit point. Undo mode
// persists the committed transactions' accumulated lines (their
// records are durably visible after prepareSync — lines shared with a
// still-running transaction are safe to persist mid-flight, a crash
// rolls the suffix back). Redo mode persists only the log-free lines:
// not covered by any record, they must be durable by the commit
// point, while logged lines wait for it.
func (e *Engine) preparePersist() {
	prevEpoch := e.m.SetCause(profile.CauseLogEpoch)
	prev := e.m.SetCause(profile.CauseCommitData)
	for _, en := range e.epochPending.ents {
		if e.cfg.Mode == Redo && en.val()&wsLogged != 0 {
			continue
		}
		if e.m.PersistLine(en.addr()) {
			e.m.Stats.EagerLinePersists++
		}
	}
	e.m.SetCause(prev)
	e.m.SetCause(prevEpoch)
}

// finishClose is the back half of an epoch close: the commit point
// (solo engines write their commit-marker header here; grouped
// engines had their commit point in the shared descriptor persist and
// the header write merely catches the durable header up) and
// everything ordered after it — redo logged-data persists, cache
// metadata retirement, epoch bookkeeping. A transaction running
// through the close reopens the stream around itself.
func (e *Engine) finishClose() {
	reopen := e.cur.active
	mode := e.logMode()
	prevEpoch := e.m.SetCause(profile.CauseLogEpoch)

	closed := e.epoch
	committedEnd := e.w.nextOff
	hdr := logfmt.Header{
		Magic:     logfmt.Magic,
		Mode:      mode,
		Watermark: e.w.nextOff,
		Epoch:     e.epoch,
	}
	if reopen {
		committedEnd = e.txnStartOff
		e.epoch++
		hdr.Epoch = e.epoch
		hdr.Seq = e.cur.seq
		hdr.State = logfmt.StateActive
		hdr.CommittedTo = e.txnStartOff
	} else {
		hdr.Seq = e.epochLastSeq
		hdr.State = logfmt.StateCommitted
		hdr.CommittedTo = e.w.nextOff
	}
	prev := e.m.SetCause(profile.CauseCommitMarker)
	e.w.writeHeader(hdr)
	e.m.SetCause(prev)

	if e.cfg.Mode == Redo {
		// Logged data lines persist only after the commit point. A line
		// a running transaction is also logging stays volatile (its new
		// epoch's commit point is not durable). Solo engines leave such
		// lines to the sharer's own stream — same stream, no reset
		// before a full close persists them. In a group the sharer is a
		// DIFFERENT core whose stream cannot cover this one's reset, so
		// the committed value is pinned into PM straight from the
		// records (durable-only; the volatile line keeps the in-flight
		// data).
		prev = e.m.SetCause(profile.CauseCommitData)
		var skipped []mem.Addr
		for _, en := range e.epochPending.ents {
			la := en.addr()
			if en.val()&wsLogged == 0 {
				continue
			}
			if e.activeLogged(la) {
				if e.group != nil {
					skipped = append(skipped, la)
				}
				continue
			}
			e.persistLoggedLine(la)
		}
		if len(skipped) > 0 {
			e.shadowPersistCommitted(skipped, committedEnd)
			for _, la := range skipped {
				delete(e.suppressed, la)
			}
		}
		e.m.SetCause(prev)
	}
	e.clearEpochPersistBits()

	e.m.Trace(trace.KEpochClose, mem.Addr(mode-logfmt.ModeUndo), closed)
	e.m.Stats.EpochCloses++
	e.epochPending.reset()
	e.epochTxns = 0
	if !reopen {
		e.epochOpen = false
	}
	e.m.SetCause(prevEpoch)
	if e.onEpochClose != nil {
		e.onEpochClose()
	}
}

// activeLogged reports whether the line is logged by a transaction
// running through the close — this engine's own, or any group peer's.
func (e *Engine) activeLogged(la mem.Addr) bool {
	if e.group != nil {
		return e.group.activeLogged(la)
	}
	return e.txLogged(la)
}

// shadowPersistCommitted pins the committed values of the given lines
// into PM from this stream's own records: the committed region
// [RecordsStart, to) is replayed over the lines' durable images (last
// record per word wins — redo records carry new values) and the
// results are persisted WITHOUT touching the volatile lines, which
// hold a running transaction's newer, uncommitted data.
func (e *Engine) shadowPersistCommitted(lines []mem.Addr, to uint64) {
	recs := e.ownRecords(logfmt.RecordsStart, to)
	img := make(map[mem.Addr][]byte, len(lines))
	for _, la := range lines {
		buf := make([]byte, mem.LineSize)
		e.m.PM.Read(la, buf)
		img[la] = buf
	}
	for _, r := range recs {
		if logfmt.IsBoundary(r) {
			continue
		}
		src := 0
		mem.LineRange(r.Addr, len(r.Data), func(line mem.Addr, off, n int) {
			if buf, ok := img[line]; ok {
				copy(buf[off:off+n], r.Data[src:src+n])
			}
			src += n
		})
	}
	for _, la := range lines { // lines arrive sorted (epochPending order)
		e.m.PersistShadow(la, img[la])
	}
}

// clearEpochPersistBits retires the persist bits of the epoch's
// pending lines after the close's data flush, mirroring the W=1
// commit walk's metadata clear.
func (e *Engine) clearEpochPersistBits() {
	e.epochLines(func(l *cache.Line) { l.Persist = false })
}

// epochLines calls fn on the epoch's pending set's private-cache lines
// in commit-scan order (see txLines).
func (e *Engine) epochLines(fn func(*cache.Line)) {
	e.markEpochLines()
	e.walk(0, fn)
}

// markEpochLines marks the scan positions of the epoch's pending set's
// private-cache lines.
//
//slpmt:noalloc
func (e *Engine) markEpochLines() {
	for _, en := range e.epochPending.ents {
		e.markPrivate(en.addr())
	}
}

// txLines calls fn on the private-cache lines the hardware's commit
// scan (§II) matches by the running transaction's ID, in that scan's
// order (L1 before L2, then set, then way), so the WPQ sees the same
// persist sequence as a walk over every private line. Only this core's
// stores stamp a line's TxID, so the candidates are the write set plus
// the surviving lines of aborted transactions that held the same ID;
// lines of earlier committed holders still carrying the recycled ID had
// their metadata cleared by that commit and would be no-ops. So would
// the lazy list's lines: a line joins it only with a clear persist bit
// and no write-set entry, and only a write-set store sets its persist
// or log bits. fn may persist the line it is given: persists move no
// lines, so the positions still to come stay valid.
func (e *Engine) txLines(fn func(*cache.Line)) {
	e.markTxLines()
	e.walk(lineID(e.cur.id), fn)
}

// markTxLines marks the scan positions of the running transaction's
// candidate lines (see txLines). An aborted line the transaction also
// wrote is marked twice and so visited once.
//
//slpmt:noalloc
func (e *Engine) markTxLines() {
	for _, en := range e.cur.ws.ents {
		e.markPrivate(en.addr())
	}
	for _, la := range e.abortedLines[e.cur.id] {
		e.markPrivate(la)
	}
}

// scanMarks is the commit walks' bitmap: one bit per private-cache scan
// position (machine.ScanPos), so a position marked twice is held once.
// bits[lo:hi] holds every mark; lo is len(bits) and hi 0 when nothing
// is marked.
type scanMarks struct {
	bits   []uint64
	lo, hi int
}

// reset drops every mark.
func (s *scanMarks) reset() {
	clear(s.bits)
	s.lo, s.hi = len(s.bits), 0
}

// markPrivate marks the scan position of the private-cache copy of the
// line, if the core holds one.
//
//slpmt:noalloc
func (e *Engine) markPrivate(line mem.Addr) {
	p, ok := e.m.PrivatePos(line)
	if !ok {
		return
	}
	s, w := &e.marks, int(p>>6)
	s.bits[w] |= 1 << (p & 63)
	s.lo, s.hi = min(s.lo, w), max(s.hi, w+1)
}

// walk visits the marked scan positions in ascending order, the order
// of the commit hardware's scan of the private caches (§II), clearing
// each mark before it visits it, and calls fn on each one's line whose
// TxID is id, or on every one's line when id is 0. It reads only the
// words that hold marks, so its cost follows the marked lines rather
// than the cache size.
//
//slpmt:noalloc
func (e *Engine) walk(id uint8, fn func(*cache.Line)) {
	s := &e.marks
	for ; s.lo < s.hi; s.lo++ {
		for w := &s.bits[s.lo]; *w != 0; {
			p := machine.ScanPos(s.lo<<6 | bits.TrailingZeros64(*w))
			*w &= *w - 1
			if l := e.m.PrivateLine(p); id == 0 || l.TxID == id {
				fn(l)
			}
		}
	}
	s.lo, s.hi = len(s.bits), 0
}

// persistMarkedLines walks the transaction's lines in commit-scan order
// (§II), persisting every line whose persist bit is set and clearing the
// transaction's metadata.
func (e *Engine) persistMarkedLines() {
	e.txLines(func(l *cache.Line) {
		if l.Persist {
			if e.m.PersistLine(l.Addr) {
				e.m.Stats.EagerLinePersists++
			}
			l.Persist = false
		}
		l.LogBits = 0
	})
}

// clearTxMeta clears persist/log bits of the transaction's lines after a
// redo commit.
func (e *Engine) clearTxMeta() {
	e.txLines(func(l *cache.Line) {
		l.Persist = false
		l.LogBits = 0
	})
}

// writeCommitMarker persists the committed state in the log header.
func (e *Engine) writeCommitMarker() {
	prev := e.m.SetCause(profile.CauseCommitMarker)
	defer e.m.SetCause(prev)
	mode := e.logMode()
	e.w.writeHeader(logfmt.Header{
		Magic:     logfmt.Magic,
		Seq:       e.cur.seq,
		State:     logfmt.StateCommitted,
		Mode:      mode,
		Watermark: e.w.nextOff,
	})
	// Addr encodes the log mode for the sanitizer: 0 undo, 1 redo.
	e.m.Trace(trace.KCommitMarker, mem.Addr(mode-logfmt.ModeUndo), e.cur.seq)
}

// ownRecords parses this core's durable record stream in [from, to).
// The log's first to bytes are read into a buffer kept across calls;
// the records alias it and stay valid until the next call. The parse
// is tag-agnostic: below the watermark a W=1 stream holds only the
// running transaction's records (Begin resets it), and an epoch stream
// is delimited by offsets alone.
func (e *Engine) ownRecords(from, to uint64) []logfmt.Record {
	e.logRaw = slices.Grow(e.logRaw[:0], int(to))[:to]
	e.m.PM.Read(e.m.Layout.LogBase, e.logRaw)
	recs, err := logfmt.AppendRegion(e.logRecs[:0], e.logRaw, from, to)
	if err != nil {
		panic(fmt.Sprintf("engine: corrupt own log: %v", err))
	}
	e.logRecs = recs
	return recs
}

// persistRecords applies records to cache and PM, newest first when
// reverse (undo rollback), skipping transaction-boundary records.
//
//slpmt:noalloc
func (e *Engine) persistRecords(recs []logfmt.Record, reverse bool) {
	for i := range recs {
		r := recs[i]
		if reverse {
			r = recs[len(recs)-1-i]
		}
		if logfmt.IsBoundary(r) {
			continue
		}
		e.m.PersistData(r.Addr, r.Data)
	}
}

// abortGrouped prepares Abort under group commit. The committed prefix
// of the window seals first — closeEpoch with reopen splits the stream
// at the aborting transaction's first record and makes every committed
// transaction of the window durable — so what Abort then reverts is
// only the record suffix [txnStartOff, nextOff), as on a W=1 stream.
func (e *Engine) abortGrouped() {
	if e.epochOpen && e.epochTxns > 0 {
		e.closeEpoch()
	} else if e.cfg.Mode == Undo {
		// Empty window, but the aborting transaction's buffered records
		// must still reach the log: restoring a line from the durable
		// image is only correct once every logged old value has been
		// applied back, and records buffered at abort time would
		// otherwise vanish.
		e.syncLog()
	} else {
		e.sink.clear()
	}
	if e.cfg.Mode == Redo {
		// Redo records of the aborting transaction are unwanted new
		// values and stay ignored (the marker's CommittedTo fences them
		// off). But committed logged lines this transaction also wrote
		// were left volatile by the close (the reopen skips lines shared
		// with the running transaction), so replay the committed region
		// forward to pin their committed values into cache and PM before
		// the header drops to Idle.
		e.persistRecords(e.ownRecords(logfmt.RecordsStart, e.txnStartOff), false)
	}
	e.epochOpen = false
	e.epochTxns = 0
}

// Abort revokes the transaction (§V-B): buffered records and cached
// updates of logged lines are dropped, undo records that already reached
// PM are applied back to persistent data, and log-free lines are left
// for the caller's recovery code to repair.
func (e *Engine) Abort() {
	if !e.cur.active {
		panic("engine: Abort outside a transaction")
	}
	if e.grouped() {
		e.abortGrouped()
	} else {
		e.sink.clear()
	}
	if e.cfg.Mode == Undo {
		// Apply the transaction's durable undo records back, newest
		// first (records of never-evicted lines never reached PM; their
		// volatile updates are dropped below). Under group commit the
		// suffix also restores the committed window's values, which may
		// have persisted only at the close just issued: they are exactly
		// this transaction's logged old values.
		e.persistRecords(e.ownRecords(e.txnStartOff, e.w.hdr.Watermark), true)
	}

	// Invalidate the transaction's logged lines and restore their
	// volatile contents from (now reverted) PM. Log-free lines keep
	// their updates; the caller's recovery reverts them structurally.
	// The next commit under this ID walks the write set's log-free
	// lines, which may hold persist bits. The lazy list's lines hold
	// none, so, as for a committing transaction (see txLines), that
	// walk need not visit them.
	e.cur.ws.sortByAddr()
	for _, en := range e.cur.ws.ents {
		if en.val()&wsLogged == 0 {
			e.abortedLines[e.cur.id] = append(e.abortedLines[e.cur.id], en.addr())
			continue
		}
		e.m.DropLine(en.addr())
		e.m.RestoreLineFromDurable(en.addr())
	}
	clear(e.suppressed)

	mode := e.logMode()
	e.w.writeHeader(logfmt.Header{
		Magic:     logfmt.Magic,
		Seq:       e.cur.seq,
		State:     logfmt.StateIdle,
		Mode:      mode,
		Watermark: logfmt.RecordsStart,
	})
	e.cur.sig.Clear()
	e.cur.active = false
	e.m.Stats.TxAborts++
	e.m.Trace(trace.KTxAbort, 0, e.cur.seq)
}

// ContextSwitch models the OS-visible part of a thread switch (§V-C):
// the kernel drains the log buffer so the outgoing thread's records are
// durable before another thread runs on the core. Lazy-persistency
// state (signatures, transaction-ID allocation) is untouched — it is
// not specific to a context — and an active transaction simply resumes
// when the thread is switched back in.
func (e *Engine) ContextSwitch() {
	e.forceCloseEpoch()
	e.syncLog()
}
