package ycsb

import "testing"

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
		m.ValueSize = 16
		ops := m.Ops()
		if len(ops) != m.N {
			t.Fatalf("%s: %d ops, want %d", m.Name, len(ops), m.N)
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
			got := counts[kind] * 100 / m.N
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
	a := WorkloadA().Ops()
	b := WorkloadA().Ops()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Key != b[i].Key {
			t.Fatal("mix not deterministic")
		}
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
	for _, k := range m.Preload().Keys() {
		pre[k] = true
	}
	for _, op := range m.Ops() {
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
