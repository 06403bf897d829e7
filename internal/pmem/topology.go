// Multi-socket PM topology: N per-socket devices behind a distance
// matrix.
//
// Real multi-socket PM platforms put one set of DIMMs (and one memory
// controller with its own WPQ and banks) behind each socket; a core's
// persist to a remote socket's DIMM crosses the processor interconnect
// and pays extra latency, while durability is still machine-global.
// The Topology models exactly that split:
//
//   - Durability is global: every per-socket Device shares ONE durable
//     image, so a crash snapshot (and recovery) sees the whole physical
//     address space regardless of which controller a write entered.
//   - Timing is per socket: each Device owns its WPQ, banks, drain
//     clock, and occupancy statistics. Two sockets drain in parallel —
//     the bandwidth the NUMA refactor is after.
//   - Distance is a symmetric hop-linear matrix: an access from socket
//     a to socket b pays |a-b| interconnect hops, each hop costing
//     RemoteEnqueueCycles (persists) or RemoteReadCycles (demand
//     reads) on top of the device's local latency. Socket-local
//     accesses pay zero extra.
//
// A 1-socket Topology has one device and an all-zero distance matrix,
// and is cycle-identical to that device alone.
package pmem

import (
	"fmt"

	"github.com/persistmem/slpmt/internal/trace"
)

// Default interconnect hop costs (cycles @2 GHz): a remote persist adds
// ~30 ns per hop to enter the far controller's WPQ; a remote demand
// read adds ~60 ns per hop (request + data return). These sit between
// the 4 ns local enqueue and the 150 ns medium read, matching the
// UPI-class latencies the NUMA PM literature reports.
const (
	DefaultRemoteEnqueueCycles = 60
	DefaultRemoteReadCycles    = 120
)

// TopoConfig parameterizes a Topology. Zero values take defaults.
type TopoConfig struct {
	// Sockets is the socket (device) count. Default 1.
	Sockets int
	// Dev is the per-socket device configuration. Dev.Size is the TOTAL
	// PM capacity (the shared physical address space), not per socket.
	Dev Config
	// RemoteEnqueueCycles and RemoteReadCycles are the per-hop
	// interconnect costs (see the package comment). Defaults above.
	RemoteEnqueueCycles uint64
	RemoteReadCycles    uint64
}

// SocketStats is one socket's device-level totals, for per-socket
// reporting.
type SocketStats struct {
	Socket      int
	Enqueued    uint64 // WPQ entries enqueued
	StallCycles uint64 // cycles cores stalled on this socket's full WPQ
	OccMaxBytes uint64 // WPQ occupancy high-water mark
	OccAvgBytes uint64 // time-weighted mean WPQ occupancy
}

// Topology is a set of per-socket Devices over one shared durable
// image, plus the distance matrix between them. Not safe for concurrent
// use.
type Topology struct {
	devs []*Device
	// enq[a][b] / read[a][b] are the extra cycles an access from socket
	// a to socket b pays (0 on the diagonal).
	enq  [][]uint64
	read [][]uint64
}

// NewTopology builds the per-socket devices and the distance matrix. It
// panics on a device configuration New rejects.
func NewTopology(cfg TopoConfig) *Topology {
	if cfg.Sockets < 1 {
		cfg.Sockets = 1
	}
	dev := cfg.Dev.withDefaults()
	dev.validate()
	if cfg.RemoteEnqueueCycles == 0 {
		cfg.RemoteEnqueueCycles = DefaultRemoteEnqueueCycles
	}
	if cfg.RemoteReadCycles == 0 {
		cfg.RemoteReadCycles = DefaultRemoteReadCycles
	}
	t := &Topology{}
	durable := newDurableImage(dev.Size)
	for s := 0; s < cfg.Sockets; s++ {
		t.devs = append(t.devs, newShared(dev, durable, s))
	}
	t.enq = make([][]uint64, cfg.Sockets)
	t.read = make([][]uint64, cfg.Sockets)
	for a := 0; a < cfg.Sockets; a++ {
		t.enq[a] = make([]uint64, cfg.Sockets)
		t.read[a] = make([]uint64, cfg.Sockets)
		for b := 0; b < cfg.Sockets; b++ {
			hops := uint64(a - b)
			if b > a {
				hops = uint64(b - a)
			}
			t.enq[a][b] = hops * cfg.RemoteEnqueueCycles
			t.read[a][b] = hops * cfg.RemoteReadCycles
		}
	}
	return t
}

// Sockets returns the socket count.
func (t *Topology) Sockets() int { return len(t.devs) }

// Dev returns socket s's device.
func (t *Topology) Dev(s int) *Device { return t.devs[s] }

// EnqueueExtra returns the extra cycles a persist from socket `from`
// into socket `to`'s controller pays on the interconnect (0 if local).
//
//slpmt:noalloc
func (t *Topology) EnqueueExtra(from, to int) uint64 { return t.enq[from][to] }

// ReadExtra returns the extra cycles a demand read from socket `from`
// served by socket `to`'s medium pays on the interconnect (0 if local).
//
//slpmt:noalloc
func (t *Topology) ReadExtra(from, to int) uint64 { return t.read[from][to] }

// DistanceMatrix returns a copy of the enqueue-distance matrix
// (cycles), row = source socket, column = target socket.
func (t *Topology) DistanceMatrix() [][]uint64 {
	out := make([][]uint64, len(t.enq))
	for i, row := range t.enq {
		out[i] = append([]uint64(nil), row...)
	}
	return out
}

// SetTracer attaches one tracer to every socket's device.
func (t *Topology) SetTracer(tr *trace.Tracer) {
	for _, d := range t.devs {
		d.SetTracer(tr)
	}
}

// Crash returns a crash snapshot. The durable image is shared, so the
// snapshot is complete regardless of which sockets absorbed writes.
func (t *Topology) Crash() *Image { return t.devs[0].Crash() }

// Reset returns every socket's device and the shared durable image to
// the state NewTopology left them in: empty WPQs, zero totals and
// occupancy, an all-zero image. Grown queues go back to the
// process-wide backlogs; the first queues, the image's mapping and the
// tracer are kept.
func (t *Topology) Reset() {
	t.devs[0].durable.reset()
	for _, d := range t.devs {
		d.reset()
	}
}

// ResetOccupancy restarts every socket's occupancy window at cycle now.
func (t *Topology) ResetOccupancy(now uint64) {
	for _, d := range t.devs {
		d.ResetOccupancy(now)
	}
}

// QueueDepth returns the total number of WPQ entries across all sockets
// as of cycle now.
func (t *Topology) QueueDepth(now uint64) int {
	depth := 0
	for _, d := range t.devs {
		depth += d.QueueDepth(now)
	}
	return depth
}

// OccupancyStats merges the per-socket statistics into the classic
// single-device pair: max of the per-socket high-water marks, sum of
// the time-weighted means (total bytes pending across the machine).
// For a 1-socket topology this is exactly the device's own stats.
func (t *Topology) OccupancyStats() (maxBytes, avgBytes uint64) {
	for _, d := range t.devs {
		m, a := d.OccupancyStats()
		if m > maxBytes {
			maxBytes = m
		}
		avgBytes += a
	}
	return maxBytes, avgBytes
}

// SocketStats returns each socket's device totals and occupancy window.
func (t *Topology) SocketStats() []SocketStats {
	out := make([]SocketStats, len(t.devs))
	for s, d := range t.devs {
		enq, stall := d.Stats()
		occMax, occAvg := d.OccupancyStats()
		out[s] = SocketStats{Socket: s, Enqueued: enq, StallCycles: stall,
			OccMaxBytes: occMax, OccAvgBytes: occAvg}
	}
	return out
}

// DrainAll returns the cycle at which every socket's queue has drained.
func (t *Topology) DrainAll(now uint64) uint64 {
	for _, d := range t.devs {
		now = d.DrainAll(now)
	}
	return now
}

// String describes the topology ("2 sockets, 60/120 cyc/hop").
func (t *Topology) String() string {
	if len(t.devs) == 1 {
		return "1 socket"
	}
	return fmt.Sprintf("%d sockets, %d/%d cyc/hop", len(t.devs), t.enq[0][1], t.read[0][1])
}
