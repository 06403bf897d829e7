//go:build !race

package recovery_test

// raceBuild reports a -race build, whose instrumentation allocates.
const raceBuild = false
