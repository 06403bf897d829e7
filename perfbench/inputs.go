package main

import (
	"fmt"

	"github.com/persistmem/slpmt/internal/ycsb"
)

// opKind enumerates the operations the benchmark sends to a structure.
type opKind uint8

const (
	opInsert opKind = iota
	opUpdate
	opDelete
	opRead
	opScan
	numKinds
)

var kindNames = [numKinds]string{"insert", "update", "delete", "read", "scan"}

// scanLen is the record count of every mix-1c scan.
const scanLen = 8

// valueSize is the payload of every inserted or updated value.
const valueSize = 256

// op is one generated operation. value is the payload of an insert or
// update and the expected result of a read.
type op struct {
	kind  opKind
	key   uint64
	value []byte
}

// cellInputs is everything one cell receives: the preload run inside
// set-up, the measured op stream, and the expected final contents.
type cellInputs struct {
	preload []op
	ops     []op
	oracle  map[uint64][]byte
}

// loadInputs is the paper's ycsb-load: n unique keys inserted once.
func loadInputs(n int, seed uint64) cellInputs {
	load := ycsb.Load{N: n, ValueSize: valueSize, Seed: seed}
	in := cellInputs{oracle: make(map[uint64][]byte, n)}
	for _, k := range load.Keys() {
		v := load.Value(k)
		in.ops = append(in.ops, op{opInsert, k, v})
		in.oracle[k] = v
	}
	return in
}

// mixInputs preloads `records` keys and then generates n operations:
// 44% reads, 2% scans, 34% updates, 10% deletes and 10% inserts of fresh
// keys, so the table size stays near `records`. Reads and scans stay
// below half so the medians fall inside the mutations, not on the edge
// between the two cost clusters. Targets are drawn
// uniformly from the live keys. A scan reads scanLen records from a
// start key in the lowest 1/64 of the key space: kv-ctree's scan walks
// every leaf below its start, so uniform starts would make each scan
// cost half the table and the blend's cost hinge on a few hundred draws.
func mixInputs(records, n int, seed uint64) cellInputs {
	load := ycsb.Load{N: records + n, ValueSize: valueSize, Seed: seed}
	keys := load.Keys()
	in := cellInputs{oracle: make(map[uint64][]byte, records)}
	live := make([]uint64, 0, records+n)
	for _, k := range keys[:records] {
		v := load.Value(k)
		in.preload = append(in.preload, op{opInsert, k, v})
		in.oracle[k] = v
		live = append(live, k)
	}
	fresh := keys[records:]
	rng := seed*0x9e3779b97f4a7c15 + 0x6d6978
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for i := 0; i < n; i++ {
		p := next(100)
		j := next(len(live))
		k := live[j]
		switch {
		case p < 44:
			in.ops = append(in.ops, op{opRead, k, in.oracle[k]})
		case p < 46:
			in.ops = append(in.ops, op{opScan, rng >> 6, nil})
		case p < 80:
			v := load.Value(k ^ uint64(i+1))
			in.ops = append(in.ops, op{opUpdate, k, v})
			in.oracle[k] = v
		case p < 90 && len(live) > 1:
			in.ops = append(in.ops, op{opDelete, k, nil})
			delete(in.oracle, k)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			k = fresh[0]
			fresh = fresh[1:]
			v := load.Value(k)
			in.ops = append(in.ops, op{opInsert, k, v})
			in.oracle[k] = v
			live = append(live, k)
		}
	}
	return in
}

// cellSpec is one independent simulated platform run: a fresh System
// (or Cluster), the structure's Setup and preload on core 0, then the
// op stream — sharded round-robin over the cores on a cluster, the way
// bench.RunMulti shards its key stream.
type cellSpec struct {
	scheme, structure string
	cores, sockets    int
	window            int
	stream            int // which of a workload's input streams, from 1
	inputs            func() cellInputs
}

func (c *cellSpec) name() string {
	if c.cores > 1 {
		return fmt.Sprintf("%s/%s/%dc%ds-w%d#%d", c.scheme, c.structure, c.cores, c.sockets, c.window, c.stream)
	}
	return c.scheme + "/" + c.structure
}

// campaignSpec is one serial crash-injection campaign of crash-1c.
type campaignSpec struct {
	structure string
	n         int
	window    int
	mixed     bool
	stride    uint64
	seed      uint64
}

// sizing holds the run lengths. fullSize is what the benchmark runs;
// the tests use a smaller one. See README.md for why each is what it is.
type sizing struct {
	loadN       int    // inserts per load-1c cell
	multiN      int    // inserts per load-4c2s-w16 cell
	mixRecords  int    // mix-1c preload
	mixOps      int    // mix-1c measured ops
	crashN      int    // ops per crash-1c campaign run
	crashStride uint64 // persist events between crash points
}

var fullSize = sizing{
	loadN:       1000,
	multiN:      4000,
	mixRecords:  5000,
	mixOps:      20000,
	crashN:      240,
	crashStride: 25,
}

var schemeNames = []string{"FG", "ATOM", "EDE", "SLPMT"}

var structures = []string{"hashtable", "rbtree", "heap", "avl", "kv-btree", "kv-ctree", "kv-rtree"}

// workloadSpec is one benchmark workload: a list of cells, or for
// crash-1c a list of campaigns.
type workloadSpec struct {
	cells     []cellSpec
	campaigns []campaignSpec
}

var workloadNames = []string{"load-1c", "load-4c2s-w16", "mix-1c", "crash-1c"}

// streamSeeds derives a workload's two input streams from its seed.
func streamSeeds(seed uint64) []uint64 { return []uint64{seed, seed + 1<<32} }

// buildWorkload returns the named workload's cells for a seed.
func buildWorkload(name string, seed uint64, sz sizing) (workloadSpec, error) {
	var ws workloadSpec
	switch name {
	case "load-1c":
		for _, s := range schemeNames {
			for _, st := range structures {
				ws.cells = append(ws.cells, cellSpec{
					scheme: s, structure: st, cores: 1, sockets: 1, window: 1,
					inputs: func() cellInputs { return loadInputs(sz.loadN, seed) },
				})
			}
		}
	case "load-4c2s-w16":
		// Two key streams per structure, so the figures average over more
		// than one table shape.
		for i, s := range streamSeeds(seed) {
			for _, st := range []string{"hashtable", "kv-btree"} {
				ws.cells = append(ws.cells, cellSpec{
					scheme: "SLPMT", structure: st, cores: 4, sockets: 2, window: 16, stream: i + 1,
					inputs: func() cellInputs { return loadInputs(sz.multiN, s) },
				})
			}
		}
	case "mix-1c":
		ws.cells = append(ws.cells, cellSpec{
			scheme: "SLPMT", structure: "kv-ctree", cores: 1, sockets: 1, window: 1,
			inputs: func() cellInputs { return mixInputs(sz.mixRecords, sz.mixOps, seed) },
		})
	case "crash-1c":
		// Two op streams per configuration, so the reference runs give
		// enough transactions for a p99.
		for _, s := range streamSeeds(seed) {
			ws.campaigns = append(ws.campaigns,
				campaignSpec{structure: "hashtable", n: sz.crashN, window: 1, mixed: true, stride: sz.crashStride, seed: s},
				campaignSpec{structure: "kv-btree", n: sz.crashN, window: 16, stride: sz.crashStride, seed: s},
			)
		}
	default:
		return ws, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return ws, nil
}
