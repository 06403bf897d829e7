package pmem

import (
	"reflect"
	"testing"
)

func TestDistanceMatrixHopLinear(t *testing.T) {
	topo := NewTopology(TopoConfig{Sockets: 4})
	m := topo.DistanceMatrix()
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			hops := uint64(a - b)
			if b > a {
				hops = uint64(b - a)
			}
			if want := hops * DefaultRemoteEnqueueCycles; m[a][b] != want {
				t.Errorf("enq[%d][%d] = %d, want %d", a, b, m[a][b], want)
			}
			if m[a][b] != m[b][a] {
				t.Errorf("matrix asymmetric at (%d,%d)", a, b)
			}
			if got, want := topo.ReadExtra(a, b), hops*DefaultRemoteReadCycles; got != want {
				t.Errorf("read[%d][%d] = %d, want %d", a, b, got, want)
			}
		}
		if m[a][a] != 0 {
			t.Errorf("nonzero diagonal at %d", a)
		}
	}
}

// TestDistanceMatrixDeterministic: two topologies built from the same
// config are indistinguishable — same matrix, same string, and the
// same persist sequence produces the same finish times on each.
func TestDistanceMatrixDeterministic(t *testing.T) {
	mk := func() *Topology {
		return NewTopology(TopoConfig{Sockets: 3, RemoteEnqueueCycles: 44, RemoteReadCycles: 91})
	}
	x, y := mk(), mk()
	if !reflect.DeepEqual(x.DistanceMatrix(), y.DistanceMatrix()) {
		t.Error("matrices differ between identical builds")
	}
	if x.String() != y.String() {
		t.Errorf("descriptions differ: %q vs %q", x, y)
	}
	for i := 0; i < 12; i++ {
		s := i % 3
		x.Dev(s).PersistStream(uint64(50*i), uint64(64*i), zline())
		y.Dev(s).PersistStream(uint64(50*i), uint64(64*i), zline())
		if xf, yf := x.Dev(s).LastFinish(), y.Dev(s).LastFinish(); xf != yf {
			t.Fatalf("persist %d finish diverged: %d vs %d", i, xf, yf)
		}
	}
}

// TestSingleSocketTopologyIsDevice: a 1-socket topology must be
// cycle-identical to a bare Device — the golden-compatibility contract.
func TestSingleSocketTopologyIsDevice(t *testing.T) {
	topo := NewTopology(TopoConfig{Sockets: 1})
	plain := New(Config{})
	for i := 0; i < 20; i++ {
		now := uint64(200 * i)
		a := topo.Dev(0).Persist(now, uint64(64*i), zline())
		b := plain.Persist(now, uint64(64*i), zline())
		if a != b {
			t.Fatalf("persist %d stall diverged: %d vs %d", i, a, b)
		}
	}
	tm, ta := topo.OccupancyStats()
	pm, pa := plain.OccupancyStats()
	if tm != pm || ta != pa {
		t.Errorf("occupancy diverged: %d/%d vs %d/%d", tm, ta, pm, pa)
	}
}

// TestSocketsDrainIndependently: the NUMA refactor's payoff in one
// assertion — a burst split over two sockets finishes as fast as half
// the burst on one device, because each socket services its own queue.
func TestSocketsDrainIndependently(t *testing.T) {
	const n = 16
	split := NewTopology(TopoConfig{Sockets: 2})
	for i := 0; i < n; i++ {
		split.Dev(i%2).PersistStream(0, uint64(64*i), zline())
	}
	one := NewTopology(TopoConfig{Sockets: 1})
	for i := 0; i < n/2; i++ {
		one.Dev(0).PersistStream(0, uint64(64*i), zline())
	}
	if s, o := split.DrainAll(0), one.DrainAll(0); s != o {
		t.Errorf("2-socket drain of %d entries = %d, want half-burst time %d", n, s, o)
	}
}

// TestSocketFairnessAcrossDevices mirrors the multi-producer fairness
// test at the topology level: interleaved producers on both sockets
// keep each device's bank model intact — per-socket finish times obey
// the same pairwise (Banks=2) drain bound as a lone device.
func TestSocketFairnessAcrossDevices(t *testing.T) {
	topo := NewTopology(TopoConfig{Sockets: 2})
	fins := map[int][]uint64{}
	for i := 0; i < 16; i++ {
		s := i % 2
		d := topo.Dev(s)
		now := uint64(10 * i)
		d.PersistStream(now, uint64(64*i), zline())
		if got, min := d.LastFinish(), now+d.cfg.EnqueueCycles+d.cfg.WriteCycles; got < min {
			t.Fatalf("socket %d entry finished at %d, before enqueue+service %d", s, got, min)
		}
		fins[s] = append(fins[s], d.LastFinish())
	}
	for s, f := range fins {
		for i := 2; i < len(f); i++ {
			if f[i] < f[i-2]+topo.Dev(s).cfg.WriteCycles {
				t.Errorf("socket %d entry %d overlaps >Banks concurrent services", s, i)
			}
		}
	}
	// Both sockets saw the same load: the per-socket stats must agree.
	st := topo.SocketStats()
	if st[0].Enqueued != st[1].Enqueued {
		t.Errorf("uneven enqueue counts under even load: %d vs %d", st[0].Enqueued, st[1].Enqueued)
	}
}

// TestSharedDurableImage: durability is machine-global — a write
// absorbed by socket 1's controller appears in the crash snapshot taken
// through socket 0.
func TestSharedDurableImage(t *testing.T) {
	topo := NewTopology(TopoConfig{Sockets: 2})
	line := zline()
	line[0] = 0xAB
	topo.Dev(1).Persist(0, 4096, line)
	img := topo.Crash()
	var got [1]byte
	if img.Read(4096, got[:]); got[0] != 0xAB {
		t.Error("socket 1's write missing from the shared snapshot")
	}
}
