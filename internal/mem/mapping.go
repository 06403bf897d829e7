package mem

import "sync/atomic"

// liveMappings counts the MapZeroed results not yet passed to Unmap.
var liveMappings atomic.Int64

// LiveMappings returns the number of MapZeroed results not yet passed
// to Unmap. Tests use it to check that finalizers release dropped
// images and tag arrays.
func LiveMappings() int64 { return liveMappings.Load() }
