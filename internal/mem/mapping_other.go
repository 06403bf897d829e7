//go:build !unix

package mem

// MapZeroed returns n zero values of T from the Go heap, the only
// allocator on platforms without anonymous mappings.
func MapZeroed[T any](n int) []T {
	liveMappings.Add(1)
	return make([]T, n)
}

// Unmap releases a slice returned by MapZeroed.
func Unmap[T any]([]T) { liveMappings.Add(-1) }
