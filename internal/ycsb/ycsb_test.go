package ycsb

import (
	"testing"
	"unsafe"
)

func TestKeysDeterministicUniqueNonzero(t *testing.T) {
	l := Load{N: 5000, Seed: 7}
	a := l.Keys()
	b := l.Keys()
	if len(a) != 5000 {
		t.Fatalf("len = %d", len(a))
	}
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("key stream not deterministic")
		}
		if a[i] == 0 {
			t.Fatal("zero key generated")
		}
		if seen[a[i]] {
			t.Fatalf("duplicate key %d", a[i])
		}
		seen[a[i]] = true
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := Load{N: 10, Seed: 1}.Keys()
	b := Load{N: 10, Seed: 2}.Keys()
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestValueSizeAndDeterminism(t *testing.T) {
	l := Load{N: 10, ValueSize: 48, Seed: 3}
	k := l.Keys()[0]
	v1, v2 := l.Value(k), l.Value(k)
	if len(v1) != 48 || string(v1) != string(v2) {
		t.Error("value not deterministic or wrong size")
	}
	if string(l.Value(k)) == string(l.Value(l.Keys()[1])) {
		t.Error("different keys produced identical values")
	}
}

func TestDefaults(t *testing.T) {
	l := Load{}
	if len(l.Keys()) != DefaultOps {
		t.Error("default op count not applied")
	}
	if len(l.Value(1)) != DefaultValueSize {
		t.Error("default value size not applied")
	}
}

func TestOracleMatchesEach(t *testing.T) {
	l := Load{N: 50, ValueSize: 16}
	oracle := l.Oracle()
	n := 0
	err := l.Each(func(k uint64, v []byte) error {
		if string(oracle[k]) != string(v) {
			t.Fatalf("oracle mismatch for %d", k)
		}
		n++
		return nil
	})
	if err != nil || n != 50 {
		t.Fatalf("each: n=%d err=%v", n, err)
	}
}

func TestMixComposition(t *testing.T) {
	for _, m := range []Mix{WorkloadA(), WorkloadB(), WorkloadC(), WorkloadE()} {
		l := Load{ValueSize: 16}
		ops := m.Ops(l)
		if len(ops) != DefaultOps {
			t.Fatalf("%s: %d ops, want %d", m.Name, len(ops), DefaultOps)
		}
		counts := map[OpKind]int{}
		for _, op := range ops {
			counts[op.Kind]++
			if op.Kind == OpUpdate || op.Kind == OpInsert {
				if len(op.Value) != 16 {
					t.Fatalf("%s: op value size %d", m.Name, len(op.Value))
				}
			}
		}
		check := func(kind OpKind, pct int) {
			got := counts[kind] * 100 / DefaultOps
			if got < pct-7 || got > pct+7 {
				t.Errorf("%s: kind %d = %d%%, want ~%d%%", m.Name, kind, got, pct)
			}
		}
		check(OpRead, m.ReadPct)
		check(OpUpdate, m.UpdatePct)
		check(OpScan, m.ScanPct)
	}
}

func TestMixDeterministic(t *testing.T) {
	a := WorkloadA().Ops(Load{})
	b := WorkloadA().Ops(Load{})
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Key != b[i].Key {
			t.Fatal("mix not deterministic")
		}
	}
}

// TestMixOpSize pins the op layout: a crash campaign keeps one op per
// operation for the whole sweep.
func TestMixOpSize(t *testing.T) {
	if s := unsafe.Sizeof(MixOp{}); s != 40 {
		t.Errorf("MixOp is %d bytes, want 40", s)
	}
}

// TestInsertsAndChurn: Inserts is the load in key order; Churn inserts
// only keys not live, updates and deletes only live ones, and every
// value is its key's payload (an update's is that of the key xor the
// op's index).
func TestInsertsAndChurn(t *testing.T) {
	l := Load{N: 200, ValueSize: 24, Seed: 3}
	keys := l.Keys()
	for i, op := range l.Inserts() {
		if op.Kind != OpInsert || op.Key != keys[i] || string(op.Value) != string(l.Value(keys[i])) {
			t.Fatalf("insert %d: %+v", i, op)
		}
	}
	ops := l.Churn()
	if len(ops) != l.N {
		t.Fatalf("%d churn ops, want %d", len(ops), l.N)
	}
	live := map[uint64]bool{}
	counts := map[OpKind]int{}
	for i, op := range ops {
		counts[op.Kind]++
		want := ""
		switch op.Kind {
		case OpInsert:
			want = string(l.Value(op.Key))
			if live[op.Key] {
				t.Fatalf("op %d inserts live key %d", i, op.Key)
			}
			live[op.Key] = true
		case OpUpdate:
			want = string(l.Value(op.Key ^ uint64(i)))
			if !live[op.Key] {
				t.Fatalf("op %d updates dead key %d", i, op.Key)
			}
		case OpDelete:
			if !live[op.Key] {
				t.Fatalf("op %d deletes dead key %d", i, op.Key)
			}
			delete(live, op.Key)
		default:
			t.Fatalf("op %d: kind %d", i, op.Kind)
		}
		if string(op.Value) != want {
			t.Fatalf("op %d: value %x, want %x", i, op.Value, want)
		}
	}
	if counts[OpUpdate] == 0 || counts[OpDelete] == 0 {
		t.Errorf("churn kinds %v: want updates and deletes", counts)
	}
}

func TestKeysReturnsPrivateCopy(t *testing.T) {
	l := Load{N: 20, Seed: 11}
	a := l.Keys()
	want := a[0]
	a[0] = 0 // caller mutation must not poison the memoized stream
	if got := l.Keys()[0]; got != want {
		t.Fatalf("cached key stream mutated: got %d, want %d", got, want)
	}
}

func TestEachBufferReuseMatchesValue(t *testing.T) {
	l := Load{N: 30, ValueSize: 24, Seed: 5}
	var prev []byte
	err := l.Each(func(k uint64, v []byte) error {
		if prev != nil && &prev[0] != &v[0] {
			t.Fatal("Each should reuse one value buffer")
		}
		prev = v
		if string(v) != string(l.Value(k)) {
			t.Fatalf("reused buffer content diverges from Value(%d)", k)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLoadEach(b *testing.B) {
	l := Load{N: 1000, ValueSize: 256, Seed: 0x5eed}
	l.keys() // warm the key cache; the loop measures the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := uint64(0)
		if err := l.Each(func(k uint64, v []byte) error {
			sink += k ^ uint64(v[0])
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadKeys(b *testing.B) {
	l := Load{N: 1000, Seed: 0x5eed}
	l.keys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(l.Keys()) != 1000 {
			b.Fatal("short key stream")
		}
	}
}

func TestMixInsertKeysFresh(t *testing.T) {
	m := WorkloadE()
	pre := map[uint64]bool{}
	for _, k := range m.Preload(Load{}).Keys() {
		pre[k] = true
	}
	for _, op := range m.Ops(Load{}) {
		if op.Kind == OpInsert && pre[op.Key] {
			t.Fatalf("insert reused preloaded key %d", op.Key)
		}
	}
}

// TestValueMatchesBytewiseDefinition pins the payload format: byte i is
// byte i%8 (least significant first) of the (i/8+1)-th splitmix draw
// seeded with key^Seed. Lengths cover whole words and partial last
// words.
func TestValueMatchesBytewiseDefinition(t *testing.T) {
	for _, size := range []int{1, 7, 8, 9, 31, 32, 48, 255, 256} {
		l := Load{N: 4, ValueSize: size, Seed: 11}
		for _, k := range l.Keys() {
			want := make([]byte, size)
			x := k ^ l.Seed
			for i := range want {
				if i%8 == 0 {
					x = splitmix(&x)
				}
				want[i] = byte(x >> (8 * uint(i%8)))
			}
			if got := l.Value(k); string(got) != string(want) {
				t.Fatalf("size %d key %#x: got %x, want %x", size, k, got, want)
			}
		}
	}
}
