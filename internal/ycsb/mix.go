package ycsb

// Standard YCSB operation mixes beyond the paper's load phase. The
// paper evaluates ycsb-load (insert-only); these mixes let the harness
// show how selective logging behaves once reads and scans dominate —
// the honest flip side: fewer persistent writes means less for SLPMT to
// save.

import "bytes"

// OpKind enumerates operations.
type OpKind uint8

const (
	// OpRead looks up one key.
	OpRead OpKind = iota
	// OpUpdate replaces one key's value.
	OpUpdate
	// OpInsert adds a new key.
	OpInsert
	// OpScan iterates from a key for ScanLen records.
	OpScan
	// OpDelete removes one key.
	OpDelete
)

// MixOp is one generated operation: the one op type every harness runs
// (bench runs, crash campaigns). The fields are ordered so an op is 40
// bytes.
type MixOp struct {
	Key   uint64
	Value []byte
	// ScanLen is the records an OpScan visits.
	ScanLen int32
	Kind    OpKind
}

// ApplyTo updates oracle, the expected table contents, for op: an
// insert or update sets the key's value, a delete removes the key, and
// reads and scans change nothing.
func (op *MixOp) ApplyTo(oracle map[uint64][]byte) {
	switch op.Kind {
	case OpInsert, OpUpdate:
		oracle[op.Key] = op.Value
	case OpDelete:
		delete(oracle, op.Key)
	}
}

// Changes reports whether ApplyTo(oracle) would change oracle.
func (op *MixOp) Changes(oracle map[uint64][]byte) bool {
	v, ok := oracle[op.Key]
	switch op.Kind {
	case OpInsert, OpUpdate:
		return !ok || !bytes.Equal(v, op.Value)
	case OpDelete:
		return ok
	}
	return false
}

// Mix describes a read/update/insert/scan operation blend over a
// preloaded table. The op count, value size and seed come from the
// Load the mix runs with (see Ops).
type Mix struct {
	// Name labels the mix in reports.
	Name string
	// Records is the preloaded table size.
	Records int
	// ReadPct/UpdatePct/InsertPct/ScanPct must sum to 100.
	ReadPct, UpdatePct, InsertPct, ScanPct int
	// ScanLen is the records per scan (default 20).
	ScanLen int
}

// Standard mixes (YCSB A/B/C/E) over a 1000-record table.
func WorkloadA() Mix {
	return Mix{Name: "ycsb-a", Records: 1000, ReadPct: 50, UpdatePct: 50}
}
func WorkloadB() Mix {
	return Mix{Name: "ycsb-b", Records: 1000, ReadPct: 95, UpdatePct: 5}
}
func WorkloadC() Mix {
	return Mix{Name: "ycsb-c", Records: 1000, ReadPct: 100}
}
func WorkloadE() Mix {
	return Mix{Name: "ycsb-e", Records: 1000, ScanPct: 95, InsertPct: 5, ScanLen: 20}
}

// Preload returns the load phase that populates the table: Records
// inserts with l's value size and seed.
func (m Mix) Preload(l Load) Load {
	return Load{N: m.Records, ValueSize: l.ValueSize, Seed: l.Seed}
}

// Ops generates the deterministic stream of l.N operations (default
// 1000), seeded by l.Seed. Keys are drawn uniformly from the preloaded
// set; inserts use fresh keys. The values share one slab.
func (m Mix) Ops(l Load) []MixOp {
	if m.ScanLen == 0 {
		m.ScanLen = 20
	}
	n := l.withDefaults().N
	load := m.Preload(l).withDefaults()
	keys := load.Keys()
	// Fresh keys for inserts: continue the key stream.
	extra := Load{N: m.Records + n, Seed: l.Seed}.keys()[m.Records:]

	rng := xorshift(l.Seed*0x9e3779b97f4a7c15 + 0xabcdef)
	slab := load.slab(n)
	ops := make([]MixOp, 0, n)
	ins := 0
	for i := 0; i < n; i++ {
		p := int(rng.next(100))
		switch {
		case p < m.ReadPct:
			ops = append(ops, MixOp{Kind: OpRead, Key: keys[rng.next(uint64(len(keys)))]})
		case p < m.ReadPct+m.UpdatePct:
			k := keys[rng.next(uint64(len(keys)))]
			ops = append(ops, MixOp{Kind: OpUpdate, Key: k, Value: l.cut(&slab, k^uint64(i))})
		case p < m.ReadPct+m.UpdatePct+m.InsertPct && ins < len(extra):
			k := extra[ins]
			ins++
			keys = append(keys, k)
			ops = append(ops, MixOp{Kind: OpInsert, Key: k, Value: l.cut(&slab, k)})
		default:
			ops = append(ops, MixOp{Kind: OpScan, Key: keys[rng.next(uint64(len(keys)))], ScanLen: int32(m.ScanLen)})
		}
	}
	return ops
}

// Inserts returns the load's inserts as ops, in key-stream order: the
// insert-only crash campaign's stream. The values share one slab.
func (l Load) Inserts() []MixOp {
	keys := l.keys()
	slab := l.slab(len(keys))
	ops := make([]MixOp, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, MixOp{Kind: OpInsert, Key: k, Value: l.cut(&slab, k)})
	}
	return ops
}

// Churn returns the mixed crash campaign's stream of l.N operations
// over a small live set: an insert of the load's next key whenever
// fewer than four keys are live and on half the other draws, otherwise
// an update or a delete of a live key with equal odds. The values
// share one slab.
func (l Load) Churn() []MixOp {
	keys := l.keys()
	slab := l.slab(len(keys))
	ops := make([]MixOp, 0, l.N)
	var live []uint64
	rng := xorshift(l.Seed*0x9e3779b97f4a7c15 + 0x1234)
	ki := 0
	for len(ops) < l.N {
		switch {
		case len(live) < 4 || rng.next(100) < 50:
			if ki >= len(keys) {
				return ops
			}
			k := keys[ki]
			ki++
			ops = append(ops, MixOp{Kind: OpInsert, Key: k, Value: l.cut(&slab, k)})
			live = append(live, k)
		case rng.next(100) < 50:
			k := live[rng.next(uint64(len(live)))]
			ops = append(ops, MixOp{Kind: OpUpdate, Key: k, Value: l.cut(&slab, k^uint64(len(ops)))})
		default:
			i := rng.next(uint64(len(live)))
			ops = append(ops, MixOp{Kind: OpDelete, Key: live[i]})
			live = append(live[:i], live[i+1:]...)
		}
	}
	return ops
}

// slab returns a buffer with room for n of l's payloads, which cut
// takes from its front: one allocation for a stream's values.
func (l Load) slab(n int) []byte { return make([]byte, n*l.withDefaults().ValueSize) }

// cut fills key's payload (the bytes Value returns) into the front of
// *slab and cuts it off.
func (l Load) cut(slab *[]byte, key uint64) []byte {
	l = l.withDefaults()
	v := (*slab)[:l.ValueSize:l.ValueSize]
	*slab = (*slab)[l.ValueSize:]
	l.fillValue(key, v)
	return v
}

// xorshift draws the op streams' choices.
type xorshift uint64

// next returns the next draw modulo n.
func (x *xorshift) next(n uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x) % n
}
