//go:build !race

package bench

// raceBuild reports a -race build, whose instrumentation allocates.
const raceBuild = false
