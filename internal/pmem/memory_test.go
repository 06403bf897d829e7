package pmem

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/persistmem/slpmt/internal/mem"
)

// heldPages lists the base addresses of the pages an image holds.
func heldPages(img *Image) []uint64 {
	var out []uint64
	img.ForEachPage(func(base uint64, _ []byte) { out = append(out, base) })
	return out
}

func TestImageAbsentPagesReadZero(t *testing.T) {
	d := New(Config{Size: 3 * PageSize})
	d.Persist(0, PageSize+64, line(0xAB))
	img := d.Crash()
	if got := heldPages(img); len(got) != 1 || got[0] != PageSize {
		t.Fatalf("held pages = %#x, want [%#x]", got, PageSize)
	}
	buf := bytes.Repeat([]byte{0xFF}, 3*PageSize)
	img.Read(0, buf)
	for a, b := range buf {
		want := byte(0)
		if a >= PageSize+64 && a < PageSize+128 {
			want = 0xAB
		}
		if b != want {
			t.Fatalf("byte %#x = %#x, want %#x", a, b, want)
		}
	}
}

func TestImageReadWriteAcrossPages(t *testing.T) {
	img := New(Config{Size: 3 * PageSize}).Crash()
	data := []byte("0123456789abcdef")
	img.Write(PageSize-8, data)
	got := make([]byte, len(data))
	img.Read(PageSize-8, got)
	if !bytes.Equal(got, data) {
		t.Errorf("read across boundary = %q, want %q", got, data)
	}
	if pages := heldPages(img); len(pages) != 2 || pages[0] != 0 || pages[1] != PageSize {
		t.Errorf("write across boundary allocated %#x, want pages 0 and %#x", pages, PageSize)
	}
	img.WriteU64(2*PageSize-4, 0x1122334455667788)
	if v := img.ReadU64(2*PageSize - 4); v != 0x1122334455667788 {
		t.Errorf("u64 across boundary = %#x", v)
	}
}

// TestImageEqual compares in place against absent pages, a range that
// straddles a page boundary, a partial last page, and out of range.
func TestImageEqual(t *testing.T) {
	const size = 2*PageSize + 100 // the last page holds 100 bytes
	img := New(Config{Size: size}).Crash()

	// Page 0 is absent: it equals zeros and nothing else.
	if !img.Equal(8, make([]byte, 64)) {
		t.Error("absent page does not equal zero bytes")
	}
	if img.Equal(8, []byte{0, 0, 1, 0}) {
		t.Error("absent page equals non-zero bytes")
	}
	if !img.Equal(0, nil) {
		t.Error("empty range does not compare equal")
	}

	// A range straddling pages 0 and 1, both now held.
	data := []byte("0123456789abcdef")
	img.Write(PageSize-8, data)
	if !img.Equal(PageSize-8, data) {
		t.Error("straddling range does not equal what was written")
	}
	for _, i := range []int{0, 7, 8, 15} { // first and last byte on each side
		bad := bytes.Clone(data)
		bad[i] ^= 1
		if img.Equal(PageSize-8, bad) {
			t.Errorf("straddling range equals data with byte %d flipped", i)
		}
	}
	// A range from an absent page into a held one.
	img2 := New(Config{Size: size}).Crash()
	img2.Write(PageSize, []byte{7})
	if !img2.Equal(PageSize-2, []byte{0, 0, 7}) || img2.Equal(PageSize-2, []byte{0, 0, 8}) {
		t.Error("range from an absent into a held page compares wrongly")
	}

	// The partial last page, up to the image's final byte.
	tail := bytes.Repeat([]byte{0x5A}, 40)
	img.Write(size-40, tail)
	if !img.Equal(size-40, tail) {
		t.Error("partial last page does not equal what was written")
	}
	if img.Equal(size-41, append([]byte{0x5A}, tail...)) {
		t.Error("partial last page equals bytes not written")
	}

	defer func() {
		if recover() == nil {
			t.Error("Equal past the image end did not panic")
		}
	}()
	img.Equal(size-39, tail)
}

// TestImagePartialLastChunk: an image whose size is a multiple of
// neither the page size nor chunkPages pages holds, reads and bounds
// its partial last page, which lies in a partial last chunk.
func TestImagePartialLastChunk(t *testing.T) {
	const size = (chunkPages+6)*PageSize + 100 // 71 pages, the last holding 100 bytes
	d := New(Config{Size: size})
	d.Persist(0, size-64, line(0xC3))
	img := d.Crash()
	pages := map[uint64]int{}
	img.ForEachPage(func(base uint64, page []byte) { pages[base] = len(page) })
	if want := map[uint64]int{(chunkPages + 6) * PageSize: 100}; !maps.Equal(pages, want) {
		t.Fatalf("held pages (base: len) = %v, want %v", pages, want)
	}
	got := make([]byte, 64)
	img.Read(size-64, got)
	if !bytes.Equal(got, line(0xC3)) {
		t.Errorf("last line = %x, want the persisted line", got)
	}
	img.Write(size-1, []byte{9})
	if v := img.ReadU64(size - 8); v != 0x09C3C3C3C3C3C3C3 {
		t.Errorf("last word = %#x after writing the final byte", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("Write past the image end did not panic")
		}
	}()
	img.Write(size-1, []byte{1, 2})
}

// TestImageWriteAbsentChunk: a write into a chunk the snapshot did not
// allocate creates it, holding just the written page; the other pages
// of the chunk still read as zero.
func TestImageWriteAbsentChunk(t *testing.T) {
	d := New(Config{Size: 4 * chunkPages * PageSize})
	d.Persist(0, 64, line(1))
	img := d.Crash()
	if img.chunks[1] != nil {
		t.Fatal("snapshot allocated chunk 1, which holds no written page")
	}
	a := uint64(chunkPages+3)*PageSize + 8
	img.WriteU64(a, 0xFEED)
	if v := img.ReadU64(a); v != 0xFEED {
		t.Errorf("read back %#x, want 0xfeed", v)
	}
	if got, want := heldPages(img), []uint64{0, (chunkPages + 3) * PageSize}; !slices.Equal(got, want) {
		t.Errorf("held pages %#x, want %#x", got, want)
	}
	if !img.Equal(uint64(chunkPages)*PageSize, make([]byte, 3*PageSize)) {
		t.Error("an unwritten page of the new chunk does not read as zero")
	}
}

// TestImageForEachPageAscending: pages written out of order, across
// chunk boundaries, are visited in ascending address order.
func TestImageForEachPageAscending(t *testing.T) {
	img := New(Config{Size: 4 * chunkPages * PageSize}).Crash()
	for _, pg := range []uint64{2*chunkPages + 2, chunkPages - 1, chunkPages, 0, 2*chunkPages - 1} {
		img.Write(pg*PageSize, []byte{byte(pg)})
	}
	want := []uint64{0, chunkPages - 1, chunkPages, 2*chunkPages - 1, 2*chunkPages + 2}
	for i := range want {
		want[i] *= PageSize
	}
	if got := heldPages(img); !slices.Equal(got, want) {
		t.Errorf("visit order %#x, want %#x", got, want)
	}
}

// TestCrashAllocatesWrittenPages: a snapshot of a 16 MiB device with 5
// written pages costs the 5 pages plus page-table overhead, not a page
// table over the whole device (4,096 entries, 32 KiB).
func TestCrashAllocatesWrittenPages(t *testing.T) {
	d := New(Config{})
	for pg := uint64(0); pg < 5; pg++ {
		d.Persist(0, pg*61*PageSize, line(byte(pg)))
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		sinkImage = d.Crash()
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if limit := uint64(5*PageSize + 4096); per > limit {
		t.Errorf("Crash allocates %d B per snapshot, want at most %d (5 pages + 4 KiB)", per, limit)
	}
}

// TestSnapshotIndependent: a snapshot neither sees later persists nor
// writes back into the live durable image.
func TestSnapshotIndependent(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	d.Persist(0, 128, line(1))
	img := d.Crash()
	d.Persist(10, 128, line(2))
	if v := img.ReadU64(128); v != 0x0101010101010101 {
		t.Errorf("snapshot saw a later persist: %#x", v)
	}
	img.WriteU64(128, 3)
	img.WriteU64(8192, 3)
	if v := d.ReadU64(128); v != 0x0202020202020202 {
		t.Errorf("snapshot write reached the device: %#x", v)
	}
	if v := d.ReadU64(8192); v != 0 {
		t.Errorf("snapshot write reached an unwritten device page: %#x", v)
	}
	if v := d.Crash().ReadU64(128); v != 0x0202020202020202 {
		t.Errorf("second snapshot = %#x", v)
	}
}

// TestPersistMarksPagesWritten: each persist path records the pages it
// touches, including both pages of an entry that straddles a boundary.
func TestPersistMarksPagesWritten(t *testing.T) {
	paths := map[string]func(d *Device, addr uint64, data []byte){
		"Persist":       func(d *Device, a uint64, p []byte) { d.Persist(0, a, p) },
		"PersistStream": func(d *Device, a uint64, p []byte) { d.PersistStream(0, a, p) },
		"PersistAsync":  func(d *Device, a uint64, p []byte) { d.PersistAsync(0, a, p) },
	}
	for name, persist := range paths {
		d := New(Config{Size: 1 << 20})
		persist(d, 5*PageSize+64, line(1))
		persist(d, 9*PageSize-32, line(2))
		got := heldPages(d.Crash())
		want := []uint64{5 * PageSize, 8 * PageSize, 9 * PageSize}
		if len(got) != len(want) {
			t.Errorf("%s: held pages %#x, want %#x", name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: held pages %#x, want %#x", name, got, want)
				break
			}
		}
	}
}

// TestMappingsReleased: the images of a dropped topology and volatile
// memory are unmapped once collected, and a live one stays readable.
func TestMappingsReleased(t *testing.T) {
	kept := NewMemory(PageSize)
	kept.WriteU64(0, 99)
	before := mem.LiveMappings()
	for i := 0; i < 8; i++ {
		topo := NewTopology(TopoConfig{Sockets: 2})
		topo.Dev(1).Persist(0, 0, line(1))
		NewMemory(DefaultSize).WriteU64(64, 1)
	}
	if n := mem.LiveMappings(); n < before+16 {
		t.Fatalf("live mappings = %d after creating 16, want at least %d", n, before+16)
	}
	for i := 0; i < 500 && mem.LiveMappings() > before; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := mem.LiveMappings(); n > before {
		t.Errorf("live mappings = %d after GC, want at most %d", n, before)
	}
	if v := kept.ReadU64(0); v != 99 {
		t.Errorf("live memory read %d after GC, want 99", v)
	}
}

var sinkStall uint64

func BenchmarkPersist(b *testing.B) {
	d := New(Config{})
	data := line(1)
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += d.Persist(now, uint64(i%4096)*PageSize, data)
	}
	sinkStall = now
}

var sinkImage *Image

// BenchmarkCrash snapshots a durable image with 5 written pages, what a
// crash campaign point leaves (about 20 KiB of page slab per point),
// and with 64, spread over the device's page-table chunks.
func BenchmarkCrash(b *testing.B) {
	for _, pages := range []uint64{5, 64} {
		b.Run(fmt.Sprintf("pages%d", pages), func(b *testing.B) {
			d := New(Config{})
			for pg := uint64(0); pg < pages; pg++ {
				d.PersistAsync(0, pg*61*PageSize%DefaultSize, line(byte(pg)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkImage = d.Crash()
			}
		})
	}
}

// BenchmarkPersistAsyncBacklog posts 4,096 async 64 B entries back to
// back, 8 cycles apart and so far faster than the device drains them,
// then one synchronous Persist waits out all but a WPQ's worth of the
// backlog: the pattern of a many-core epoch close, where posted
// persists pile up behind the 512 B queue. The host cost grows with
// the square of the backlog: each post scans the queue from its head,
// and each retirement during the wait compacts the rest of the queue.
func BenchmarkPersistAsyncBacklog(b *testing.B) {
	const backlog = 4096
	d := New(Config{})
	data := line(1)
	var now uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := uint64(0); j < backlog; j++ {
			now += d.PersistAsync(now, j*64, data)
		}
		now += d.Persist(now, backlog*64, data)
	}
	sinkStall = now
}

// TestViewAliasesMemory: a view reads the memory's current bytes
// (later writes included, on a partial last page too), copies no
// image, refuses writes, and keeps its memory mapped after the last
// reference to the Memory itself is gone.
func TestViewAliasesMemory(t *testing.T) {
	m := NewMemory(DefaultSize)
	m.WriteU64(PageSize+8, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := m.View()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > DefaultSize/64 {
		t.Errorf("View allocated %d bytes for a %d-byte memory", grew, DefaultSize)
	}
	m.WriteU64(3*PageSize, 9)
	if v.ReadU64(PageSize+8) != 7 || v.ReadU64(3*PageSize) != 9 || !v.Equal(PageSize+8, []byte{7, 0}) {
		t.Error("view does not read the memory's current bytes")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Write on a view did not panic")
			}
		}()
		v.WriteU64(0, 1)
	}()

	m = nil
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if v.ReadU64(3*PageSize) != 9 {
		t.Error("view lost its memory's contents after GC")
	}

	odd := NewMemory(2*PageSize + 16)
	odd.WriteU64(2*PageSize+8, 5)
	ov := odd.View()
	odd.WriteU64(2*PageSize, 6)
	if ov.ReadU64(2*PageSize+8) != 5 || ov.ReadU64(2*PageSize) != 6 || ov.Size() != 2*PageSize+16 {
		t.Error("view of a partial last page reads wrong")
	}
	if got := heldPages(ov); !slices.Equal(got, []uint64{0, PageSize, 2 * PageSize}) {
		t.Errorf("view holds pages %#x, want all three", got)
	}
}

// TestViewAllocatesOneImage: a view of a 16 MiB memory, or of one with
// a partial last page, costs one Image and no page table.
func TestViewAllocatesOneImage(t *testing.T) {
	for _, size := range []uint64{DefaultSize, 2*PageSize + 16} {
		m := NewMemory(size)
		if got := testing.AllocsPerRun(10, func() { sinkImage = m.View() }); got != 1 {
			t.Errorf("View of a %d-byte memory: %.0f allocations, want 1", size, got)
		}
	}
}

// TestCrashViewIsTheDurableImage: a crash view holds the written pages
// and only those, reads and writes the durable image itself (its
// writes marking their pages written, on a partial last page too), and
// keeps the image mapped after the device is gone.
func TestCrashViewIsTheDurableImage(t *testing.T) {
	d := New(Config{Size: 3*PageSize + 16})
	d.Persist(0, PageSize+64, line(1))
	v := d.CrashView()
	if got := heldPages(v); !slices.Equal(got, []uint64{PageSize}) {
		t.Fatalf("view holds pages %#x, want [%#x]", got, PageSize)
	}
	d.Persist(10, 128, line(2))
	if !v.Equal(128, line(2)) || !v.Equal(PageSize+64, line(1)) || !v.Equal(2*PageSize, make([]byte, PageSize)) {
		t.Error("view does not read the durable image's current bytes")
	}
	v.WriteU64(3*PageSize+8, 9)
	if got := d.ReadU64(3*PageSize + 8); got != 9 {
		t.Errorf("write through the view left the device reading %#x", got)
	}
	want := []uint64{0, PageSize, 3 * PageSize}
	if got := heldPages(d.Crash()); !slices.Equal(got, want) {
		t.Errorf("snapshot after a view write holds %#x, want %#x", got, want)
	}
	if got := heldPages(v); !slices.Equal(got, want) {
		t.Errorf("view holds %#x after its write, want %#x", got, want)
	}

	d = nil
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if v.ReadU64(3*PageSize+8) != 9 || !v.Equal(128, line(2)) {
		t.Error("view lost the durable image's contents after GC")
	}
}
