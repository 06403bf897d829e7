package workloads_test

import (
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// loaded builds one workload holding n keys (values of 32 bytes) and
// returns it with its system and oracle.
func loaded(tb testing.TB, name string, n int) (workloads.Workload, *slpmt.System, map[uint64][]byte) {
	tb.Helper()
	w := workloads.MustNew(name)
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
	if err := w.Setup(sys); err != nil {
		tb.Fatal(err)
	}
	oracle := make(map[uint64][]byte, n)
	for i := uint64(1); i <= uint64(n); i++ {
		k := i*2654435761 + 1
		v := make([]byte, 32)
		for j := range v {
			v[j] = byte(k) + byte(j)
		}
		if err := w.Insert(sys, k, v); err != nil {
			tb.Fatal(err)
		}
		oracle[k] = v
	}
	sys.DrainLazy()
	return w, sys, oracle
}

// TestReadsDoNotAllocate: after one warm-up call, the read side of
// every workload allocates nothing. Get (hit and miss) and Scan return
// views of the instance's buffer, and CheckDurable takes its key set
// from the package free list, on a fresh instance too.
func TestReadsDoNotAllocate(t *testing.T) {
	const hit, miss = 1*2654435761 + 1, 3
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w, sys, oracle := loaded(t, name, 200)
			zero := func(what string, f func()) {
				t.Helper()
				f()
				if n := testing.AllocsPerRun(20, f); n != 0 {
					t.Errorf("%s: %v allocations per call, want 0", what, n)
				}
			}
			var found bool
			zero("Get hit", func() { _, found = w.Get(sys, hit) })
			if !found {
				t.Fatal("Get missed an inserted key")
			}
			zero("Get miss", func() { _, found = w.Get(sys, miss) })
			if found {
				t.Fatal("Get found a key never inserted")
			}
			if r, ok := w.(workloads.Ranger); ok {
				var err error
				zero("Scan", func() {
					err = r.Scan(sys, 0, ^uint64(0), func(uint64, []byte) bool { return true })
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if rec, ok := w.(workloads.Recoverable); ok {
				img := sys.Mach.Crash()
				if err := rec.Recover(img); err != nil {
					t.Fatal(err)
				}
				var err error
				zero("CheckDurable", func() { err = rec.CheckDurable(img, oracle) })
				if err != nil {
					t.Fatal(err)
				}
				// One instance per call: zero's warm-up, then
				// AllocsPerRun's warm-up and 20 runs.
				fresh := make([]workloads.Recoverable, 22)
				for i := range fresh {
					fresh[i] = workloads.MustNew(name).(workloads.Recoverable)
				}
				zero("CheckDurable on a fresh instance", func() {
					err, fresh = fresh[0].CheckDurable(img, oracle), fresh[1:]
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGet times one kv-ctree point read over 5,000 records.
func BenchmarkGet(b *testing.B) {
	w, sys, _ := loaded(b, "kv-ctree", 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%5000+1)*2654435761 + 1
		if _, ok := w.Get(sys, k); !ok {
			b.Fatalf("key %d missing", k)
		}
	}
}

// BenchmarkScan times one 8-record kv-ctree range scan over 5,000
// records.
func BenchmarkScan(b *testing.B) {
	w, sys, _ := loaded(b, "kv-ctree", 5000)
	r := w.(workloads.Ranger)
	n := 0
	fn := func(uint64, []byte) bool {
		n++
		return n < 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		from := uint64(i%5000+1)*2654435761 + 1
		if err := r.Scan(sys, from, ^uint64(0), fn); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatalf("scan from %d visited nothing", from)
		}
	}
}
