//go:build !unix

package pmem

// mapZeroed returns size zeroed bytes from the Go heap, the only
// allocator on platforms without anonymous mappings.
func mapZeroed(size int) []byte { return make([]byte, size) }

func unmap([]byte) {}
