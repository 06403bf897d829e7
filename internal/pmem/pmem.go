// Package pmem models the byte-addressable persistent memory device of
// the paper's evaluation platform (Table III): an Intel-ADR style device
// where data becomes durable as soon as it enters the memory controller's
// write pending queue (WPQ), and the WPQ drains to the persistent medium
// at the device write latency.
//
// The model separates durability from timing:
//
//   - Durability: a write is copied into the durable image at enqueue
//     time. On a crash/power failure the hardware drains the WPQ, so the
//     durable image is exactly what recovery sees. A crash image (Image)
//     is a copy of the written pages (Crash), or the durable image
//     itself, which recovery then repairs in place (CrashView): the
//     durable image remembers every 4 KiB page a persist ever touched,
//     and all others are zero.
//   - Timing: the WPQ holds a bounded number of bytes (512 B in the
//     paper). Entries complete one after another, each taking the device
//     write latency. When the queue is full, the enqueuing core stalls
//     until space frees — this backpressure is the mechanism that turns
//     write traffic into execution time, which is the causal chain behind
//     every speedup the paper reports.
package pmem

import (
	"fmt"

	"github.com/persistmem/slpmt/internal/freelist"
	"github.com/persistmem/slpmt/internal/trace"
)

// Config parameterizes the device. Zero values are replaced by the
// paper's defaults (Table III).
type Config struct {
	// Size is the device capacity in bytes. Default 16 MiB; at most
	// MaxSize, so a WPQ entry's address fits 32 bits.
	Size uint64
	// WPQBytes is the write pending queue capacity. Default 512; at most
	// MaxWPQBytes, so a WPQ entry's byte count fits 16 bits.
	WPQBytes int
	// EnqueueCycles is the cost of entering the WPQ (the paper's "4ns
	// latency" for the persist operation). Default 8 cycles (4 ns @2 GHz).
	EnqueueCycles uint64
	// ReadCycles is the demand-read latency. Default 300 (150 ns @2 GHz).
	ReadCycles uint64
	// WriteCycles is the medium write latency per WPQ entry. Default
	// 1000 (500 ns @2 GHz). Figure 12 sweeps this up to 2300 ns.
	WriteCycles uint64
	// Banks is the device's internal write parallelism: up to Banks WPQ
	// entries drain concurrently (each still taking WriteCycles). Real
	// PM modules service writes from multiple banks/partitions; a
	// purely serial drain would make every workload trivially
	// bandwidth-bound. Default 2.
	Banks int
	// AckCycles is the round-trip cost of a synchronous persist: the
	// memory controller's durability acknowledgement the core must wait
	// for on commit-path persists (the coherence "reached persistent
	// domain" message of §III-C2). Asynchronous persists (evictions,
	// buffer spills, lazy drains) do not pay it. Default 100 (50 ns).
	AckCycles uint64
}

// Defaults for a 2 GHz core: 1 ns = 2 cycles.
const (
	DefaultSize          = 16 << 20
	DefaultWPQBytes      = 512
	DefaultEnqueueCycles = 8
	DefaultReadCycles    = 300
	DefaultWriteCycles   = 1000
	DefaultAckCycles     = 100
	DefaultBanks         = 2
	// CyclesPerNs converts Table III nanosecond figures to core cycles.
	CyclesPerNs = 2

	// MaxSize and MaxWPQBytes bound the packed WPQ entry's fields (see
	// entry); New and NewTopology panic on a larger configuration.
	MaxSize     = 1 << 32
	MaxWPQBytes = 1<<16 - 1
)

func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = DefaultSize
	}
	if c.WPQBytes == 0 {
		c.WPQBytes = DefaultWPQBytes
	}
	if c.EnqueueCycles == 0 {
		c.EnqueueCycles = DefaultEnqueueCycles
	}
	if c.ReadCycles == 0 {
		c.ReadCycles = DefaultReadCycles
	}
	if c.WriteCycles == 0 {
		c.WriteCycles = DefaultWriteCycles
	}
	if c.AckCycles == 0 {
		c.AckCycles = DefaultAckCycles
	}
	if c.Banks == 0 {
		c.Banks = DefaultBanks
	}
	return c
}

// validate panics on a configuration the packed WPQ entry cannot
// represent.
func (c Config) validate() {
	if c.Size > MaxSize {
		panic(fmt.Sprintf("pmem: device size %#x exceeds %#x", c.Size, uint64(MaxSize)))
	}
	if c.WPQBytes < 0 || c.WPQBytes > MaxWPQBytes {
		panic(fmt.Sprintf("pmem: WPQ capacity %d outside 0..%d", c.WPQBytes, MaxWPQBytes))
	}
}

// entry is one in-flight WPQ element, packed into 16 bytes: an
// asynchronous backlog can hold thousands of them. Size <= MaxSize
// keeps every address within 32 bits, and WPQBytes <= MaxWPQBytes
// every entry's byte count (which never exceeds the queue) within 16.
type entry struct {
	finish uint64 // cycle at which the entry has drained to the medium
	addr   uint32 // persisted line address, for drain trace attribution
	bytes  uint16
	core   uint8 // enqueuing core, for trace attribution
}

// minQueueCap is the WPQ backlog's first capacity, in entries: twice
// the 64 B lines a default 512 B queue holds.
const minQueueCap = 16

// backlogs holds the grown WPQ backlogs of every device in the process.
// Posted persists (an epoch close's flush, a rehash's lazy drain) pile
// thousands of entries into a backlog, and each fresh platform would
// regrow its backlog from minQueueCap by doubling. A device keeps its
// first backlog inline (Device.first), which never enters the list, and
// hands a grown one back only when a drain empties it, so the list is
// touched once per growth episode, not once per emptying. It keeps a
// backlog of up to 32 Ki entries (512 KiB): the largest of a 4-core,
// 2-socket W=16 hashtable load holds 6,662.
var backlogs = freelist.List[[]entry]{Keep: 1 << 15, First: minQueueCap}

// Device is a simulated persistent memory module with an ADR persist
// domain. It is not safe for concurrent use.
type Device struct {
	cfg     Config
	durable *durableImage

	// WPQ state. queue is first's array until the backlog outgrows it,
	// and a grown backlog from backlogs until a drain empties it.
	queue      []entry
	first      [minQueueCap]entry
	usedBytes  int
	lastFinish uint64   // finish time of the most recently enqueued entry
	lastWaited uint64   // WPQ-space wait of the most recent persist call
	recent     []uint64 // recent finish times (bank occupancy window)

	// Totals (timing-model introspection; traffic accounting is done by
	// the machine layer against stats.Counters).
	totalEnqueued uint64
	totalStall    uint64

	// Observation-only state: the tracer and the time-weighted occupancy
	// integral. None of it feeds back into timing.
	tr      *trace.Tracer
	curCore uint8
	// socket is this device's socket ID on a Topology (0 standalone);
	// sockTag is trace.WPQArgTag(socket), ORed into the occupancy Arg of
	// WPQ trace events so consumers can split the per-socket series.
	// Socket 0 tags with zero — single-socket traces are byte-identical.
	socket  int
	sockTag uint64
	occMax  int
	// occIntegral accumulates usedBytes·dt between occupancy changes;
	// the mean occupancy over [occBase, occLastT] is integral/(lastT-base).
	occIntegral uint64
	occLastT    uint64
	occBase     uint64
}

// New returns a device with the given configuration.
//
// It panics if cfg.Size exceeds MaxSize or cfg.WPQBytes MaxWPQBytes.
func New(cfg Config) *Device {
	cfg = cfg.withDefaults()
	cfg.validate()
	return newShared(cfg, newDurableImage(cfg.Size), 0)
}

// newShared returns a per-socket device of a Topology: it shares the
// topology-wide durable image (every socket's controller reaches the
// whole physical address space — durability is global) but owns its own
// WPQ, banks, and occupancy clock (timing is per socket).
func newShared(cfg Config, durable *durableImage, socket int) *Device {
	// bankFinish trims recent once it passes 4·Banks entries.
	d := &Device{cfg: cfg, durable: durable, socket: socket,
		recent: make([]uint64, 0, 4*cfg.Banks+1)}
	d.reset()
	return d
}

// reset returns the device's timing state to the state newShared left
// it in: an empty WPQ in the first backlog, zero totals and occupancy.
// A grown backlog goes back to backlogs; the bank window and the tracer
// are kept. The durable image, which the sockets of a Topology share,
// is reset by the Topology.
func (d *Device) reset() {
	d.releaseQueue()
	*d = Device{
		cfg:     d.cfg,
		durable: d.durable,
		recent:  d.recent[:0],
		tr:      d.tr,
		socket:  d.socket,
		sockTag: trace.WPQArgTag(d.socket),
	}
	d.queue = d.first[:0]
}

// Socket returns the device's socket ID on its topology (0 standalone).
func (d *Device) Socket() int { return d.socket }

// Config returns the effective configuration.
func (d *Device) Config() Config { return d.cfg }

// SetTracer attaches a tracer to the device. A nil tracer (the default)
// disables event emission; the device's timing is identical either way.
func (d *Device) SetTracer(tr *trace.Tracer) { d.tr = tr }

// SetCore records which core is driving the next Persist* calls, so WPQ
// events carry the right core ID. The machine layer calls this at the
// top of each core's persist path.
func (d *Device) SetCore(id int) { d.curCore = uint8(id) }

// occAdvance accounts the occupancy integral up to cycle t. Cores on a
// multi-core machine arbitrate for the WPQ at interleaved clock values,
// so t can be behind occLastT; the integral only ever moves forward.
func (d *Device) occAdvance(t uint64) {
	if t > d.occLastT {
		d.occIntegral += uint64(d.usedBytes) * (t - d.occLastT)
		d.occLastT = t
	}
}

// OccupancyStats returns the WPQ high-water mark and the time-weighted
// mean occupancy in bytes since creation (or the last ResetOccupancy).
func (d *Device) OccupancyStats() (maxBytes, avgBytes uint64) {
	maxBytes = uint64(d.occMax)
	if span := d.occLastT - d.occBase; span > 0 {
		avgBytes = d.occIntegral / span
	}
	return maxBytes, avgBytes
}

// ResetOccupancy drains retired entries as of cycle now and restarts the
// occupancy statistics window there — used by harnesses to exclude setup
// traffic from a measured interval.
func (d *Device) ResetOccupancy(now uint64) {
	d.drainUpTo(now)
	d.occAdvance(now)
	d.occIntegral = 0
	d.occBase = d.occLastT
	d.occMax = d.usedBytes
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.cfg.Size }

// ReadCycles returns the demand-read latency in cycles.
func (d *Device) ReadCycles() uint64 { return d.cfg.ReadCycles }

// drainUpTo retires queue entries whose finish time is <= now. The
// queue is kept sorted by finish time (see enqueue), so retirement is a
// prefix pop. A grown backlog that empties goes back to backlogs.
func (d *Device) drainUpTo(now uint64) {
	i := 0
	for i < len(d.queue) && d.queue[i].finish <= now {
		e := d.queue[i]
		d.occAdvance(e.finish)
		d.usedBytes -= int(e.bytes)
		d.tr.Emit(e.core, e.finish, trace.KWPQDrain, uint64(e.addr), uint64(d.usedBytes)|d.sockTag)
		i++
	}
	if i == len(d.queue) && cap(d.queue) > minQueueCap {
		d.releaseQueue()
	} else if i > 0 {
		d.queue = append(d.queue[:0], d.queue[i:]...)
	}
	d.occAdvance(now)
}

// releaseQueue hands a grown backlog to backlogs (PutSlice keeps no
// first one) and returns the device to its first backlog. The entries
// left in it are stale: a device that takes it next reads only the
// ones it copies in.
//
//go:noinline
func (d *Device) releaseQueue() {
	freelist.PutSlice(&backlogs, d.queue)
	d.queue = d.first[:0]
}

// growQueue moves the full backlog into one with more room
// (freelist.Grow): the largest grown backlog of backlogs, or one of
// twice the capacity. A first backlog it replaces stays in
// Device.first; a grown one is dropped.
//
//go:noinline
func (d *Device) growQueue() {
	d.queue = freelist.Grow(&backlogs, d.queue)
}

// enqueue inserts an entry keeping the queue sorted by finish time.
// A single core enqueues at monotonically increasing clocks, which
// yields monotone finish times — the insertion is then a plain append.
// On a multi-core machine the cores arbitrate for the WPQ at their own
// interleaved clock values, so a core that is behind in time can insert
// an entry that finishes before already-queued ones. A full backlog
// grows through growQueue (append grows a large slice by only 1.25x,
// and a lazy drain's backlog reaches thousands of entries).
func (d *Device) enqueue(e entry, t uint64) {
	d.occAdvance(t)
	if len(d.queue) == cap(d.queue) {
		d.growQueue()
	}
	d.queue = append(d.queue, e)
	for i := len(d.queue) - 1; i > 0 && d.queue[i-1].finish > d.queue[i].finish; i-- {
		d.queue[i-1], d.queue[i] = d.queue[i], d.queue[i-1]
	}
	d.usedBytes += int(e.bytes)
	if d.usedBytes > d.occMax {
		d.occMax = d.usedBytes
	}
	d.lastFinish = e.finish
	d.totalEnqueued++
}

// panicOutOfRange and panicTooLarge keep the message formatting (which
// allocates) out of the annotated persist hot paths: the compiler only
// sets up the fmt call inside these never-inlined helpers.
//
//go:noinline
func (d *Device) panicOutOfRange(op string, addr uint64, n int) {
	panic(fmt.Sprintf("pmem: %s out of range: addr=%#x n=%d size=%#x", op, addr, n, d.cfg.Size))
}

//go:noinline
func (d *Device) panicTooLarge(n int) {
	panic(fmt.Sprintf("pmem: persist entry larger than WPQ: %d > %d", n, d.cfg.WPQBytes))
}

// Persist makes data durable at address addr. It returns the number of
// cycles the enqueuing core stalls: the fixed enqueue latency plus any
// wait for WPQ space. now is the current core cycle.
//
// The write is durable upon return (ADR). n must fit in one WPQ entry
// (<= 64 bytes is typical; larger writes should be split by the caller).
//
//slpmt:noalloc
func (d *Device) Persist(now uint64, addr uint64, data []byte) (stall uint64) {
	d.lastWaited = 0
	if len(data) == 0 {
		return 0
	}
	stall, t, fin := d.enqueueWait(now, addr, data)
	// Synchronous persist: the commit engine issues one coherence-level
	// persist request per line and waits for the controller's completion
	// acknowledgement before the next ordering-constrained operation, so
	// the core observes the write's service time (bank-pipelined) plus
	// the acknowledgement round trip. Streamed persists (PersistStream)
	// pay only queue backpressure; background persists (PersistAsync)
	// are posted.
	stall += fin - t
	d.totalStall += stall - d.cfg.EnqueueCycles
	return stall + d.cfg.AckCycles
}

// PersistStream is the path of pipelined hardware engines that stream
// packed lines to the memory controller (the log buffer drain): the
// core pays the enqueue latency and any wait for WPQ space, but not the
// per-line completion or acknowledgement. Callers needing an
// end-of-stream durability point add one AckCycles barrier.
//
//slpmt:noalloc
func (d *Device) PersistStream(now uint64, addr uint64, data []byte) (stall uint64) {
	d.lastWaited = 0
	if len(data) == 0 {
		return 0
	}
	stall, _, _ = d.enqueueWait(now, addr, data)
	d.totalStall += stall - d.cfg.EnqueueCycles
	return stall
}

// enqueueWait is the enqueue core of Persist and PersistStream: it
// range-checks the non-empty write, makes it durable, waits for WPQ
// space, and enqueues the entry. It returns the stall so far (enqueue
// latency plus the wait), the enqueue time t, and the entry's finish
// time fin.
//
//slpmt:noalloc
func (d *Device) enqueueWait(now uint64, addr uint64, data []byte) (stall, t, fin uint64) {
	n := len(data)
	if addr+uint64(n) > d.cfg.Size {
		d.panicOutOfRange("persist", addr, n)
	}
	if n > d.cfg.WPQBytes {
		d.panicTooLarge(n)
	}
	// Durable immediately: inside the persist domain.
	d.durable.write(addr, data)

	stall = d.cfg.EnqueueCycles
	t = now + stall
	d.drainUpTo(t)
	var waited uint64
	for d.usedBytes+n > d.cfg.WPQBytes {
		// Wait for the oldest entry to drain.
		wait := d.queue[0].finish - t
		stall += wait
		waited += wait
		t = d.queue[0].finish
		d.drainUpTo(t)
	}
	if waited > 0 {
		d.tr.Emit(d.curCore, t, trace.KWPQStall, addr, waited)
	}
	d.lastWaited = waited
	fin = d.bankFinish(t)
	d.enqueue(entry{finish: fin, addr: uint32(addr), bytes: uint16(n), core: d.curCore}, t)
	d.tr.Emit(d.curCore, t, trace.KWPQEnqueue, addr, uint64(d.usedBytes)|d.sockTag)
	return stall, t, fin
}

// LastWaited returns the WPQ-space wait (cycles) incurred by the most
// recent Persist/PersistStream call on any core — 0 for async persists,
// which never stall the core. The machine layer reads it immediately
// after a persist to attribute queue backpressure separately from
// service time.
func (d *Device) LastWaited() uint64 { return d.lastWaited }

// LastFinish returns the finish time of the most recently enqueued
// entry (0 if none yet) — used by the machine layer to implement
// ordering barriers over streamed sequences.
func (d *Device) LastFinish() uint64 { return d.lastFinish }

// bankFinish computes when an entry enqueued at time t drains, given
// that up to Banks entries are serviced concurrently: the new entry
// starts when a bank frees (the Banks-th most recent entry's finish).
func (d *Device) bankFinish(t uint64) uint64 {
	start := t
	if len(d.recent) >= d.cfg.Banks {
		if f := d.recent[len(d.recent)-d.cfg.Banks]; f > start {
			start = f
		}
	}
	fin := start + d.cfg.WriteCycles
	d.recent = append(d.recent, fin)
	if len(d.recent) > 4*d.cfg.Banks {
		d.recent = append(d.recent[:0], d.recent[len(d.recent)-d.cfg.Banks:]...)
	}
	return fin
}

// PersistAsync posts a persist without waiting for acknowledgement or
// WPQ space: the data is durable (ADR) and the entry occupies device
// write bandwidth, but the core is only charged the enqueue latency.
// This is the path for background persists — cache evictions, log
// buffer spills, and lazy-persistency drains, which the paper places
// off the program's critical path (§III-B2, §III-C3). The implicit
// buffering beyond the WPQ capacity models the dirty lines parking in
// the cache hierarchy until the queue can take them. Like Persist, it
// takes at most one WPQ's worth of bytes.
//
//slpmt:noalloc
func (d *Device) PersistAsync(now uint64, addr uint64, data []byte) (stall uint64) {
	d.lastWaited = 0
	n := len(data)
	if n == 0 {
		return 0
	}
	if addr+uint64(n) > d.cfg.Size {
		d.panicOutOfRange("persist", addr, n)
	}
	if n > d.cfg.WPQBytes {
		d.panicTooLarge(n)
	}
	d.durable.write(addr, data)
	t := now + d.cfg.EnqueueCycles
	d.drainUpTo(t)
	// The posting engine waits for WPQ space on the device timeline
	// (the entry starts only once a slot frees), but the core is not
	// stalled — the pending line parks in the cache hierarchy. The
	// delayed start pushes this and subsequent entries' finish times
	// out, so later synchronous persists see the backlog.
	tStart := t
	if d.usedBytes+n > d.cfg.WPQBytes {
		freed := 0
		for _, e := range d.queue {
			freed += int(e.bytes)
			if e.finish > tStart {
				tStart = e.finish
			}
			if d.usedBytes+n-freed <= d.cfg.WPQBytes {
				break
			}
		}
	}
	fin := d.bankFinish(tStart)
	d.enqueue(entry{finish: fin, addr: uint32(addr), bytes: uint16(n), core: d.curCore}, t)
	d.tr.Emit(d.curCore, t, trace.KWPQEnqueue, addr, uint64(d.usedBytes)|d.sockTag)
	return d.cfg.EnqueueCycles
}

// DrainAll returns the cycle at which every currently queued entry has
// drained to the medium, without modifying state. now is the current
// cycle; if the queue is empty the result is now.
func (d *Device) DrainAll(now uint64) uint64 {
	if d.lastFinish > now {
		return d.lastFinish
	}
	return now
}

// QueueDepth returns the number of entries currently in the WPQ as of
// cycle now.
func (d *Device) QueueDepth(now uint64) int {
	d.drainUpTo(now)
	return len(d.queue)
}

// Read copies n bytes of the durable image at addr into p. This is the
// functional read path used by recovery; demand reads during execution
// are timed by the machine layer using ReadCycles.
func (d *Device) Read(addr uint64, p []byte) {
	if addr+uint64(len(p)) > d.cfg.Size {
		panic(fmt.Sprintf("pmem: read out of range: addr=%#x n=%d", addr, len(p)))
	}
	d.durable.mem.Read(addr, p)
}

// ReadU64 reads a little-endian uint64 from the durable image.
func (d *Device) ReadU64(addr uint64) uint64 { return d.durable.mem.ReadU64(addr) }

// Crash returns a crash snapshot of the device. Because durability is
// applied at WPQ enqueue, the snapshot is simply a copy of the durable
// image's written pages — exactly the ADR semantics.
func (d *Device) Crash() *Image { return d.durable.snapshot() }

// CrashView returns the durable image itself as a crash image, for
// recovery to read and repair in place without a copy. It holds the
// pages written so far, reads what the device holds when it is read,
// and its writes land in the durable image and mark their pages
// written, so the Topology's Reset zeroes them like any persisted page.
// It aliases the image the device keeps running on: a caller repairs it
// only after the run it belongs to is over, and resets the device
// before the next run.
func (d *Device) CrashView() *Image {
	return &Image{size: d.cfg.Size, src: d.durable.mem, durable: d.durable}
}

// Stats returns (entries enqueued, cycles stalled on a full WPQ) since
// creation.
func (d *Device) Stats() (enqueued, stallCycles uint64) {
	return d.totalEnqueued, d.totalStall
}
