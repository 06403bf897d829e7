package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/isa"
)

// spanRecorder is the traced run's slpmt.Recorder. Every callback fires
// after the operation it reports has executed, so the host time since
// the previous callback of the same transaction is that operation's
// span (plus the workload code between the two calls). The commit span
// runs from the last operation callback to RecCommit: Eng.Commit plus
// the heap's commit bookkeeping. Store spans also carry the Recorder's
// own byte copy and runtime.Caller, so they are for attribution only.
type spanRecorder struct {
	last                       time.Time
	commit, store, load, alloc []time.Duration
	frees                      int
}

var _ slpmt.Recorder = (*spanRecorder)(nil)

func (r *spanRecorder) lap(into *[]time.Duration) {
	now := time.Now()
	*into = append(*into, now.Sub(r.last))
	r.last = now
}

func (r *spanRecorder) RecBegin(uint64)             { r.last = time.Now() }
func (r *spanRecorder) RecCommit()                  { r.lap(&r.commit) }
func (r *spanRecorder) RecAbort()                   { r.last = time.Now() }
func (r *spanRecorder) RecAlloc(slpmt.Addr, uint64) { r.lap(&r.alloc) }
func (r *spanRecorder) RecFree(slpmt.Addr)          { r.frees++; r.last = time.Now() }
func (r *spanRecorder) RecLoad(slpmt.Addr, int)     { r.lap(&r.load) }
func (r *spanRecorder) RecStore(slpmt.Addr, []byte, isa.Kind, slpmt.Attr, uintptr) {
	r.lap(&r.store)
}
func (r *spanRecorder) RecCopy(slpmt.Addr, slpmt.Addr, int, isa.Kind, slpmt.Attr, uintptr) {
	r.lap(&r.store)
}

// regionLabel marks the measured regions in the CPU profile: the
// driving goroutine carries it from the first op to the end of the final
// lazy drain (a whole campaign on crash-1c). Samples without it — set-up,
// verification, forced collections, background GC workers — are not
// attributed.
const regionLabel = "perfbench.region"

var measuredCtx = pprof.WithLabels(context.Background(), pprof.Labels(regionLabel, "measured"))

// enterRegion and leaveRegion bracket a measured region.
func enterRegion() { pprof.SetGoroutineLabels(measuredCtx) }
func leaveRegion() { pprof.SetGoroutineLabels(context.Background()) }

// cpuProfile captures a runtime/pprof CPU profile in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds the measured regions' self time into
// layers, returning each layer's share of those samples in percent and
// the sample count.
func (p *cpuProfile) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	self, err := selfSamples(p.buf.Bytes(), regionLabel)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	total := 0
	for fn, n := range self {
		shares[layerOf(fn)] += float64(n)
		total += n
	}
	for l := range shares {
		shares[l] = 100 * shares[l] / float64(total)
	}
	return shares, total, nil
}

const modulePath = "github.com/persistmem/slpmt"

// layerOf maps a profiled function name to the module layer that owns
// it: the package under internal/ (workloads' structure packages fold
// into workloads, logfmt into recovery, signature into engine), the root
// package as slpmt, and the Go runtime's allocation and collection code
// as runtime_gc. Everything else (the benchmark itself, the rest of the
// runtime and standard library) is "other".
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == modulePath:
		return "slpmt"
	case strings.HasPrefix(pkg, modulePath+"/internal/"):
		sub := strings.TrimPrefix(pkg, modulePath+"/internal/")
		if i := strings.Index(sub, "/"); i >= 0 {
			sub = sub[:i]
		}
		switch sub {
		case "logfmt":
			return "recovery"
		case "signature":
			return "engine"
		}
		for _, l := range hostLayers {
			if l == sub {
				return l
			}
		}
	case pkg == "runtime" && isGCFunc(fn):
		return "runtime_gc"
	}
	return "other"
}

// gcMarkers are substrings of runtime function names that belong to
// allocation, zeroing, marking and sweeping.
var gcMarkers = []string{
	"gc", "malloc", "memclr", "scanobject", "greyobject", "markroot", "sweep",
	"mspan", "mheap", "mcache", "mcentral", "heapBits", "heapSetType",
	"findObject", "wbBuf", "scanblock", "typePointers", "nextFree", "markBits",
	"bulkBarrier",
}

func isGCFunc(fn string) bool {
	name := strings.TrimPrefix(fn, "runtime.")
	for _, m := range gcMarkers {
		if strings.Contains(name, m) {
			return true
		}
	}
	return false
}
