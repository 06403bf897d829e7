package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"

	"github.com/persistmem/slpmt/internal/mem"
)

// PageSize is the granularity at which the durable image tracks writes
// and at which crash snapshots hold data.
const PageSize = 4096

// Memory is a fixed-size byte image that starts zeroed. On unix it is
// an anonymous private mapping (mem.MapZeroed), so creating one zeroes
// nothing and only the pages a run touches ever become resident; the
// mapping is released by a finalizer once the Memory is unreachable.
// The mapping never leaves this type: every method copies in or out of
// it, and ends with runtime.KeepAlive so the finalizer cannot unmap
// mid-copy when the call is the Memory's last use.
type Memory struct {
	b []byte
}

// NewMemory returns a zeroed image of size bytes.
func NewMemory(size uint64) *Memory {
	m := &Memory{b: mem.MapZeroed[byte](int(size))}
	runtime.SetFinalizer(m, (*Memory).release)
	return m
}

func (m *Memory) release() {
	mem.Unmap(m.b)
	m.b = nil
}

// Size returns the image size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.b)) }

// Zero returns the whole image to zero, keeping its mapping (see
// mem.Rezero).
func (m *Memory) Zero() {
	mem.Rezero(m.b)
	runtime.KeepAlive(m)
}

// Read copies len(p) bytes at addr into p.
func (m *Memory) Read(addr uint64, p []byte) {
	copy(p, m.b[addr:addr+uint64(len(p))])
	runtime.KeepAlive(m)
}

// Write copies p into the image at addr.
func (m *Memory) Write(addr uint64, p []byte) {
	copy(m.b[addr:addr+uint64(len(p))], p)
	runtime.KeepAlive(m)
}

// ReadU64 reads a little-endian uint64 at addr.
func (m *Memory) ReadU64(addr uint64) uint64 {
	v := binary.LittleEndian.Uint64(m.b[addr : addr+8])
	runtime.KeepAlive(m)
	return v
}

// WriteU64 writes a little-endian uint64 at addr.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	binary.LittleEndian.PutUint64(m.b[addr:addr+8], v)
	runtime.KeepAlive(m)
}

// View returns an Image over m's own pages: it copies nothing, so it
// reads what m holds when it is read, and it keeps m reachable for as
// long as it is itself. A view holds every page and is read-only;
// Write panics on it.
func (m *Memory) View() *Image { return &Image{size: m.Size(), src: m} }

// clearRange zeroes the n bytes at addr.
func (m *Memory) clearRange(addr, n uint64) {
	clear(m.b[addr : addr+n])
	runtime.KeepAlive(m)
}

// durableImage is the persist domain's contents: a Memory plus one bit
// per page ever written, so a crash snapshot copies only those pages.
type durableImage struct {
	mem     *Memory
	written []uint64
}

func newDurableImage(size uint64) *durableImage {
	pages := (size + PageSize - 1) / PageSize
	return &durableImage{mem: NewMemory(size), written: make([]uint64, (pages+63)/64)}
}

// reset zeroes the written pages and forgets them: the image reads as
// a new one again, at a cost that follows the pages written.
func (d *durableImage) reset() {
	for i, w := range d.written {
		for ; w != 0; w &= w - 1 {
			pg := uint64(i*chunkPages + bits.TrailingZeros64(w))
			d.mem.clearRange(pg*PageSize, min(PageSize, d.mem.Size()-pg*PageSize))
		}
	}
	clear(d.written)
}

// write stores p (non-empty) at addr and marks its pages written.
//
//slpmt:noalloc
func (d *durableImage) write(addr uint64, p []byte) {
	d.mem.Write(addr, p)
	for pg := addr / PageSize; pg <= (addr+uint64(len(p))-1)/PageSize; pg++ {
		d.written[pg/64] |= 1 << (pg % 64)
	}
}

// snapshot copies the written pages into a new Image: one slab for all
// of them and one for the page-table chunks that hold them.
func (d *durableImage) snapshot() *Image {
	pages, chunks := 0, 0
	for _, w := range d.written {
		if w != 0 {
			pages += bits.OnesCount64(w)
			chunks++
		}
	}
	img := newImage(d.mem.Size())
	slab, tables := make([][PageSize]byte, pages), make([]imageChunk, chunks)
	for i, w := range d.written {
		if w == 0 {
			continue
		}
		c := &tables[0]
		tables = tables[1:]
		img.chunks[i] = c
		for ; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			pg := uint64(i*chunkPages + j)
			page := &slab[0]
			slab = slab[1:]
			d.mem.Read(pg*PageSize, page[:img.pageLen(pg)])
			c[j] = page
		}
	}
	return img
}

// chunkPages is the number of pages one page-table chunk maps: the
// width of a durableImage.written word, so snapshot maps one bitmap
// word to one chunk.
const chunkPages = 64

// imageChunk maps chunkPages consecutive pages; nil: absent, reads as
// zero.
type imageChunk [chunkPages]*[PageSize]byte

// Image is a crash image: the durable contents of the device at the
// instant of a (simulated) power failure, after the ADR domain has been
// flushed. Pages never written read as zero. A crash image is either a
// copy of the written pages (Device.Crash) or the durable image itself
// (Device.CrashView), whose pages are the device's own and whose writes
// land in the device. Recovery reads and repairs an Image in place. An
// Image can also be a read-only view of a Memory (Memory.View), whose
// pages are the Memory's own.
//
// A copy's page table has two levels, so it costs in proportion to the
// pages it holds rather than to its size: a directory with one entry
// per chunkPages pages, and chunks allocated only once they hold a
// page.
type Image struct {
	size   uint64
	chunks []*imageChunk // a copy's directory; nil entry: no page of the chunk held
	// src is the Memory whose pages the image aliases (nil: a copy).
	// Holding it keeps the mapping alive; the methods that touch pages
	// end with runtime.KeepAlive(img) so it outlives their last access.
	src *Memory
	// durable is set on a crash view: the image it aliases, whose
	// written-page bitmap says which pages the view holds and through
	// which its writes go. A view without it is read-only and holds
	// every page.
	durable *durableImage
}

func newImage(size uint64) *Image {
	pages := (size + PageSize - 1) / PageSize
	return &Image{size: size, chunks: make([]*imageChunk, (pages+chunkPages-1)/chunkPages)}
}

// page returns the pageLen(pg) bytes of page pg, or nil if the image
// does not hold it.
func (img *Image) page(pg uint64) []byte {
	if img.src != nil {
		if img.durable != nil && img.durable.written[pg/64]&(1<<(pg%64)) == 0 {
			return nil
		}
		base := pg * PageSize
		return img.src.b[base : base+uint64(img.pageLen(pg))]
	}
	if c := img.chunks[pg/chunkPages]; c != nil && c[pg%chunkPages] != nil {
		return c[pg%chunkPages][:img.pageLen(pg)]
	}
	return nil
}

// pageLen is the number of image bytes in page pg (short on a partial
// last page).
func (img *Image) pageLen(pg uint64) int {
	return int(min(PageSize, img.size-pg*PageSize))
}

// Size returns the image size in bytes.
func (img *Image) Size() uint64 { return img.size }

func (img *Image) check(op string, addr uint64, n int) {
	if addr > img.size || uint64(n) > img.size-addr {
		panic(fmt.Sprintf("pmem: image %s out of range: addr=%#x n=%d size=%#x", op, addr, n, img.size))
	}
}

// Read copies len(p) bytes at addr from the image into p.
func (img *Image) Read(addr uint64, p []byte) {
	img.check("read", addr, len(p))
	for len(p) > 0 {
		pg, off := addr/PageSize, addr%PageSize
		n := int(min(uint64(len(p)), PageSize-off))
		if page := img.page(pg); page != nil {
			copy(p[:n], page[off:])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		addr += uint64(n)
	}
	runtime.KeepAlive(img)
}

// zeroPage is what an absent page holds.
var zeroPage [PageSize]byte

// Equal reports whether the len(p) image bytes at addr equal p. It
// compares in place, without copying the image bytes out.
//
//slpmt:noalloc
func (img *Image) Equal(addr uint64, p []byte) bool {
	img.check("compare", addr, len(p))
	for len(p) > 0 {
		pg, off := addr/PageSize, addr%PageSize
		n := min(uint64(len(p)), PageSize-off)
		have := zeroPage[:n]
		if page := img.page(pg); page != nil {
			have = page[off : off+n]
		}
		if !bytes.Equal(p[:n], have) {
			break
		}
		p = p[n:]
		addr += n
	}
	runtime.KeepAlive(img) //slpmt:noalloc-ok: a pointer fits an interface word, so boxing it allocates nothing
	return len(p) == 0
}

// Write copies p into the image at addr. A copy allocates any absent
// page (and page-table chunk) it touches; a crash view writes the
// device's durable image, marking the pages written.
func (img *Image) Write(addr uint64, p []byte) {
	img.check("write", addr, len(p))
	if len(p) == 0 {
		return
	}
	if img.src != nil {
		if img.durable == nil {
			panic("pmem: write to a read-only view")
		}
		img.durable.write(addr, p)
		return
	}
	for len(p) > 0 {
		pg, off := addr/PageSize, addr%PageSize
		c := img.chunks[pg/chunkPages]
		if c == nil {
			c = new(imageChunk)
			img.chunks[pg/chunkPages] = c
		}
		page := c[pg%chunkPages]
		if page == nil {
			page = new([PageSize]byte)
			c[pg%chunkPages] = page
		}
		n := copy(page[off:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// ReadU64 reads a little-endian uint64 from the image.
func (img *Image) ReadU64(addr uint64) uint64 {
	var b [8]byte
	img.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64 into the image (used by
// recovery when applying undo/redo records).
func (img *Image) WriteU64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	img.Write(addr, b[:])
}

// Clone returns an independent copy of img.
func (img *Image) Clone() *Image {
	c := newImage(img.size)
	img.ForEachPage(func(base uint64, page []byte) { c.Write(base, page) })
	return c
}

// ForEachPage calls fn, in ascending address order, with the base
// address and contents of every page the image holds. fn must not
// retain or modify page.
func (img *Image) ForEachPage(fn func(base uint64, page []byte)) {
	for pg := uint64(0); pg*PageSize < img.size; pg++ {
		if page := img.page(pg); page != nil {
			fn(pg*PageSize, page)
		}
	}
	runtime.KeepAlive(img)
}
