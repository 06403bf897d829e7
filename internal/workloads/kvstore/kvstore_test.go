package kvstore

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/workloads"
)

// --- pure helper properties -----------------------------------------

func TestNibbleHelpers(t *testing.T) {
	key := uint64(0x123456789abcdef0)
	if nib(key, 0) != 0x1 || nib(key, 15) != 0x0 || nib(key, 7) != 0x8 {
		t.Error("nib extraction broken")
	}
	// packPrefix/prefixNib roundtrip.
	f := func(key uint64, from8, n8 uint8) bool {
		from := int(from8 % 12)
		n := int(n8%4) + 1
		p := packPrefix(key, from, n)
		for j := 0; j < n; j++ {
			if prefixNib(p, j) != nib(key, from+j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// shiftPrefix drops leading nibbles.
	p := packPrefix(key, 0, 6)
	s := shiftPrefix(p, 2)
	for j := 0; j < 4; j++ {
		if prefixNib(s, j) != nib(key, 2+j) {
			t.Fatalf("shiftPrefix broken at %d", j)
		}
	}
}

func TestMsbDiff(t *testing.T) {
	if msbDiff(0, 1) != 0 || msbDiff(0, 1<<63) != 63 || msbDiff(0b1000, 0b1100) != 2 {
		t.Error("msbDiff broken")
	}
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		d := msbDiff(a, b)
		// Bits above d agree; bit d differs.
		if d < 63 && (a>>(d+1)) != (b>>(d+1)) {
			return false
		}
		return keyBit(a, d) != keyBit(b, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaggedPointers(t *testing.T) {
	a := slpmt.Addr(0x1230)
	if !ctIsLeaf(ctTagLeaf(a)) || ctUntag(ctTagLeaf(a)) != 0x1230 {
		t.Error("ctree tagging broken")
	}
	if !rtIsLeaf(rtTag(a)) || rtUntag(rtTag(a)) != 0x1230 {
		t.Error("rtree tagging broken")
	}
	if ctIsLeaf(uint64(a)) {
		t.Error("untagged pointer classified as leaf")
	}
}

// --- structural unit tests over small key sets ------------------------

// insertKeys builds an index with the given keys (values = key bytes).
func insertKeys(t *testing.T, name string, keys []uint64) (*KV, *slpmt.System) {
	t.Helper()
	kv := workloads.MustNew(name).(*KV)
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
	if err := kv.Setup(sys); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v := make([]byte, 16)
		for i := range v {
			v[i] = byte(k >> uint(8*(i%8)))
		}
		if err := kv.Insert(sys, k, v); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	return kv, sys
}

func TestBtreeSplitsKeepOrder(t *testing.T) {
	// Sequential keys force a split chain through every level.
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	kv, sys := insertKeys(t, "kv-btree", keys)
	sys.DrainLazy()
	img := sys.Mach.Crash()
	b := kv.idx.(*btree)
	if err := b.checkDurable(img); err != nil {
		t.Fatal(err)
	}
	// In-order walk yields sorted keys.
	prev := uint64(0)
	var got []uint64
	if err := b.walkDurable(img, func(k uint64, _ mem.Addr) error {
		got = append(got, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, k := range got {
		if k <= prev {
			t.Fatalf("walk out of order at %d", k)
		}
		prev = k
	}
	if len(got) != len(keys) {
		t.Fatalf("walked %d keys, want %d", len(got), len(keys))
	}
}

func TestCtreeBitDiscrimination(t *testing.T) {
	// Keys differing in single bits exercise the crit-bit ordering.
	keys := []uint64{1, 2, 3, 1 << 40, 1<<40 | 1, 1 << 63, 1<<63 | 1<<40}
	kv, sys := insertKeys(t, "kv-ctree", keys)
	sys.DrainLazy()
	img := sys.Mach.Crash()
	c := kv.idx.(*ctree)
	if err := c.checkDurable(img); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := kv.Get(sys, k); !ok {
			t.Fatalf("key %d not found", k)
		}
	}
	if _, ok := kv.Get(sys, 4); ok {
		t.Fatal("phantom key found")
	}
}

// A zeroed grandchild pointer is a nil child below the root's own
// children: CheckDurable must report it, not walk address 0 as an
// internal node forever.
func TestCtreeCheckDurableRejectsNilGrandchild(t *testing.T) {
	// Root branches on bit 40; its 0 side holds 1, 2, 3 under bit 1.
	keys := []uint64{1, 2, 3, 1 << 40}
	kv, sys := insertKeys(t, "kv-ctree", keys)
	sys.DrainLazy()
	img := sys.Mach.Crash()
	root := ctUntag(workloads.ReadRoot(img, workloads.RootMain))
	child := img.ReadU64(uint64(root + ctChild0))
	if ctIsLeaf(child) {
		t.Fatal("root's 0 side is a leaf; the keys no longer build a grandchild")
	}
	img.WriteU64(uint64(ctUntag(child)+ctChild0), 0)

	oracle := map[uint64][]byte{}
	for _, k := range keys {
		oracle[k], _ = kv.Get(sys, k)
	}
	err := kv.CheckDurable(img, oracle)
	if err == nil || !strings.Contains(err.Error(), "nil child under bit") {
		t.Fatalf("CheckDurable on a zeroed grandchild: %v, want a nil-child error", err)
	}
}

func TestRtreePrefixSplit(t *testing.T) {
	// Keys sharing long nibble prefixes force compressed-edge splits.
	keys := []uint64{
		0x1111111111111111,
		0x1111111111111112, // split at the last nibble
		0x1111111100000000, // split mid-prefix
		0x2222222222222222,
	}
	kv, sys := insertKeys(t, "kv-rtree", keys)
	sys.DrainLazy()
	img := sys.Mach.Crash()
	r := kv.idx.(*rtree)
	if err := r.checkDurable(img); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := kv.Get(sys, k); !ok {
			t.Fatalf("key %#x not found", k)
		}
	}
	if _, ok := kv.Get(sys, 0x1111111111111113); ok {
		t.Fatal("phantom key found")
	}
}

func TestRtreeCollapseOnDelete(t *testing.T) {
	keys := []uint64{0x1111111111111111, 0x1111111111111112, 0x1111111111111113}
	kv, sys := insertKeys(t, "kv-rtree", keys)
	if err := kv.Delete(sys, keys[1]); err != nil {
		t.Fatal(err)
	}
	if err := kv.Delete(sys, keys[2]); err != nil {
		t.Fatal(err)
	}
	sys.DrainLazy()
	img := sys.Mach.Crash()
	if err := kv.idx.(*rtree).checkDurable(img); err != nil {
		t.Fatalf("collapse left an invalid tree: %v", err)
	}
	if _, ok := kv.Get(sys, keys[0]); !ok {
		t.Fatal("survivor lost")
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	for _, name := range []string{"kv-btree", "kv-ctree", "kv-rtree"} {
		kv, sys := insertKeys(t, name, []uint64{7})
		if err := kv.Insert(sys, 7, []byte("x")); err == nil {
			t.Errorf("%s accepted a duplicate", name)
		}
	}
}
