//go:build unix

package pmem

import (
	"fmt"
	"syscall"
)

// mapZeroed returns size bytes of demand-zero memory outside the Go
// heap: the OS supplies a zeroed page on first touch.
func mapZeroed(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("pmem: mmap %d bytes: %v", size, err))
	}
	return b
}

func unmap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("pmem: munmap: %v", err))
	}
}
