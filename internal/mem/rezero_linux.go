//go:build linux

package mem

import (
	"fmt"
	"syscall"
	"unsafe"
)

// Rezero returns a slice from MapZeroed (the whole slice, or a prefix
// of it: the start must be the mapping's) to all zeros. On Linux it
// discards the mapping's pages (madvise MADV_DONTNEED): a private
// anonymous page reads as zero again on its next touch, so the cost
// follows the pages the previous run made resident, not the mapping's
// size, and the mapping itself stays.
func Rezero[T any](s []T) {
	if len(s) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
	if err := syscall.Madvise(b, syscall.MADV_DONTNEED); err != nil {
		panic(fmt.Sprintf("mem: madvise: %v", err))
	}
}
