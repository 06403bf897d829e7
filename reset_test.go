package slpmt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// resetRun is what a platform's run leaves behind for comparison.
type resetRun struct {
	clocks  []uint64
	stats   stats.Counters
	sockets []pmem.SocketStats
	image   string
}

// imageDigest hashes an image's held pages with their addresses.
func imageDigest(img *pmem.Image) string {
	h := sha256.New()
	img.ForEachPage(func(base uint64, page []byte) {
		h.Write([]byte{byte(base >> 12), byte(base >> 20), byte(base >> 28)})
		h.Write(page)
	})
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// runWorkload sets up workload name on core 0 and runs n operations
// sharded across the cluster's cores, crashing at persist event
// crashAt (0 = never): inserts, with every eighth operation deleting
// the key inserted four operations before on the same core (at 1, 2 or
// 4 cores), so that later inserts reuse freed blocks. It returns the
// run's clocks, merged counters, per-socket device totals and crash
// image.
func runWorkload(t *testing.T, cl *slpmt.Cluster, name string, n int, seed, crashAt uint64) resetRun {
	t.Helper()
	w := workloads.MustNew(name)
	load := ycsb.Load{N: n, ValueSize: 48, Seed: seed}
	keys := load.Keys()
	op := func(sys *slpmt.System, i int) error {
		if i%8 == 7 {
			return w.(workloads.Mutable).Delete(sys, keys[i-4])
		}
		return w.Insert(sys, keys[i], load.Value(keys[i]))
	}
	cl.Plat.CrashAfterTotal = crashAt
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*machine.CrashSignal); !ok {
					panic(r)
				}
			}
		}()
		if err := w.Setup(cl.Use(0)); err != nil {
			t.Fatalf("%s setup: %v", name, err)
		}
		cl.Use(0).FinishEpoch()
		cl.SyncClocks()
		if err := bench.Shard(cl, len(keys), op); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl.DrainLazy()
	}()
	out := resetRun{stats: cl.Stats(), sockets: cl.SocketStats(), image: imageDigest(cl.Plat.Crash())}
	for _, s := range cl.Sys {
		out.clocks = append(out.clocks, s.Cycles())
	}
	return out
}

// TestClusterResetMatchesNew runs workload A on a cluster (to completion,
// or crashed part-way as a crash sweep does), resets it, and runs
// workload B: B's clocks, counters, per-socket totals and crash image
// must equal B's on a newly built cluster.
func TestClusterResetMatchesNew(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cores, sockets int
		opts           slpmt.Options
	}{
		{"1c", 1, 1, slpmt.Options{Scheme: "SLPMT"}},
		{"1c-w16", 1, 1, slpmt.Options{Scheme: "SLPMT", CommitWindow: 16}},
		{"4c2s-w16", 4, 2, slpmt.Options{Scheme: "SLPMT", Sockets: 2, CommitWindow: 16}},
		{"SLPMT-redo", 1, 1, slpmt.Options{Scheme: "SLPMT-redo"}},
		{"2c-FG-redo-w4", 2, 1, slpmt.Options{Scheme: "FG-redo", CommitWindow: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runWorkload(t, slpmt.NewCluster(tc.cores, tc.opts), "avl", 120, 7, 0)
			for _, crashAt := range []uint64{0, 900} {
				cl := slpmt.NewCluster(tc.cores, tc.opts)
				sys := cl.Use(0)
				sys.SetStrip(true)
				runWorkload(t, cl, "hashtable", 200, 3, crashAt)
				cl.Reset()
				got := runWorkload(t, cl, "avl", 120, 7, 0)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("A crashed at %d: after Reset B gives\n%+v\nnew cluster gives\n%+v", crashAt, got, want)
				}
				// A second reset in a row changes nothing either.
				cl.Reset()
				cl.Reset()
				if got := runWorkload(t, cl, "avl", 120, 7, 0); !reflect.DeepEqual(got, want) {
					t.Errorf("A crashed at %d: after two Resets B gives %+v, want %+v", crashAt, got, want)
				}
			}
		})
	}
}

// TestClusterResetInsideUpdatePanics: a Reset from inside a running
// transaction is refused, and the cluster is left untouched.
func TestClusterResetInsideUpdatePanics(t *testing.T) {
	cl := slpmt.NewCluster(2, slpmt.Options{Scheme: "SLPMT"})
	sys := cl.Use(1)
	var root slpmt.Addr
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "Reset inside Update") {
			t.Fatalf("Reset inside Update: recovered %v, want a Reset panic", r)
		}
		before := cl.Stats()
		cl.Use(0).View(func(tx *slpmt.Tx) { root = slpmt.Addr(tx.Root(0)) })
		if root == 0 || before.TxBegins != 2 {
			t.Errorf("after the refused Reset: root %#x, %d begins; want the first transaction's state", root, before.TxBegins)
		}
	}()
	if err := sys.Update(func(tx *slpmt.Tx) error {
		tx.SetRoot(0, uint64(tx.Alloc(64)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = sys.Update(func(tx *slpmt.Tx) error {
		cl.Reset()
		return nil
	})
}

// TestCrashViewRecoversInPlace: a platform's crash view holds what a
// crash snapshot holds (the same pages, so the same hash); recovery
// repairs it in place, and a page only recovery wrote reads zero after
// Cluster.Reset, so the next crash on the reset platform matches a new
// platform's.
func TestCrashViewRecoversInPlace(t *testing.T) {
	opts := slpmt.Options{Scheme: "SLPMT"}
	cl := slpmt.NewCluster(1, opts)
	view := cl.Plat.CrashView()
	runWorkload(t, cl, "hashtable", 200, 3, 900)
	if imageDigest(view) != imageDigest(cl.Plat.Crash()) {
		t.Fatal("crash view differs from a crash snapshot")
	}
	if _, _, err := recovery.RecoverSharded(view, workloads.MustNew("hashtable").(workloads.Recoverable), 1, 1); err != nil {
		t.Fatal(err)
	}
	// The first page neither the run nor recovery wrote.
	var tail uint64
	view.ForEachPage(func(base uint64, _ []byte) {
		if base == tail {
			tail += pmem.PageSize
		}
	})
	view.WriteU64(tail, 0x0807060504030201)
	if got := cl.Plat.Crash().ReadU64(tail); got != 0x0807060504030201 {
		t.Fatalf("a write through the view left the durable image reading %#x", got)
	}
	cl.Reset()
	if got := cl.Plat.PM.ReadU64(tail); got != 0 {
		t.Errorf("a page only recovery wrote reads %#x after Reset, want 0", got)
	}
	view.ForEachPage(func(base uint64, _ []byte) { t.Errorf("page %#x held after Reset", base) })
	for _, crashAt := range []uint64{700, 0} {
		want := runWorkload(t, slpmt.NewCluster(1, opts), "avl", 120, 7, crashAt)
		if got := runWorkload(t, cl, "avl", 120, 7, crashAt); !reflect.DeepEqual(got, want) {
			t.Errorf("crash at %d after recovery and Reset gives\n%+v\nnew cluster gives\n%+v", crashAt, got, want)
		}
		if got := imageDigest(view); got != want.image {
			t.Errorf("crash at %d: view hashes %s, a new cluster's crash %s", crashAt, got, want.image)
		}
		cl.Reset()
	}
}
