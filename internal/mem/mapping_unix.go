//go:build unix

package mem

import (
	"fmt"
	"syscall"
	"unsafe"
)

// MapZeroed returns n zero values of T in demand-zero memory outside
// the Go heap: an anonymous private mapping, so nothing is zeroed up
// front and the OS supplies a zeroed page on first touch. T must hold
// no pointers, because the collector never scans the mapping. The
// caller owns the mapping and must release it with Unmap, after which
// no pointer into it may be used.
func MapZeroed[T any](n int) []T {
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(*new(T))), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mmap %d x %T: %v", n, *new(T), err))
	}
	liveMappings.Add(1)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// Unmap releases a slice returned by MapZeroed.
func Unmap[T any](s []T) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("mem: munmap: %v", err))
	}
	liveMappings.Add(-1)
}
