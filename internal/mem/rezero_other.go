//go:build !linux

package mem

// Rezero returns a slice from MapZeroed (the whole slice, or a prefix
// of it) to all zeros. Only Linux
// guarantees that discarded private anonymous pages read back as zero,
// so other platforms clear the slice in place.
func Rezero[T any](s []T) { clear(s) }
