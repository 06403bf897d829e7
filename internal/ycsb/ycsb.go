// Package ycsb generates the evaluation workload of §VI-A: the
// YCSB-load phase — N insertion operations, each a durable transaction
// inserting an 8-byte key with a fixed-size value (256 bytes by
// default; Figures 10, 11 and 14 sweep the size).
//
// Generation is deterministic in the seed so record/replay runs (the
// compiler experiments) and crash campaigns see identical operation
// streams, and keys are guaranteed unique and non-zero.
package ycsb

import (
	"encoding/binary"
	"sync"
)

// DefaultOps is the paper's operation count per benchmark run.
const DefaultOps = 1000

// DefaultValueSize is the paper's default value size in bytes.
const DefaultValueSize = 256

// Load describes one ycsb-load run.
type Load struct {
	// N is the number of insert operations (default 1000).
	N int
	// ValueSize is the value payload size in bytes (default 256).
	ValueSize int
	// Seed selects the deterministic key sequence.
	Seed uint64
}

// withDefaults fills zero fields.
func (l Load) withDefaults() Load {
	if l.N == 0 {
		l.N = DefaultOps
	}
	if l.ValueSize == 0 {
		l.ValueSize = DefaultValueSize
	}
	if l.Seed == 0 {
		l.Seed = 0x5eed
	}
	return l
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keysCache memoizes generated key streams. A key stream depends only
// on (N, Seed), the same handful of combinations recur across every
// figure cell, scheme and crash point, and the splitmix + dedup-map
// generation dominated Each/Oracle/Keys before caching. Cached slices
// are shared read-only; Keys hands out copies.
var keysCache sync.Map // keysCacheKey -> []uint64

type keysCacheKey struct {
	n    int
	seed uint64
}

// keys returns the shared, memoized key stream. Callers must not
// mutate the returned slice.
func (l Load) keys() []uint64 {
	l = l.withDefaults()
	ck := keysCacheKey{n: l.N, seed: l.Seed}
	if ks, ok := keysCache.Load(ck); ok {
		return ks.([]uint64)
	}
	s := l.Seed
	seen := make(map[uint64]bool, l.N)
	keys := make([]uint64, 0, l.N)
	for len(keys) < l.N {
		k := splitmix(&s)
		if k == 0 || k == ^uint64(0) || seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	keysCache.Store(ck, keys)
	return keys
}

// Keys returns the N unique, non-zero keys of the load. The slice is
// the caller's to keep (a copy of the memoized stream).
func (l Load) Keys() []uint64 {
	ks := l.keys()
	out := make([]uint64, len(ks))
	copy(out, ks)
	return out
}

// Value deterministically fills a value payload for key.
func (l Load) Value(key uint64) []byte {
	l = l.withDefaults()
	v := make([]byte, l.ValueSize)
	l.fillValue(key, v)
	return v
}

// fillValue writes the deterministic payload of key into v (the
// caller-sized buffer; len(v) bytes are produced): each splitmix draw
// supplies the next 8 bytes, least significant first.
func (l Load) fillValue(key uint64, v []byte) {
	x := key ^ l.Seed
	i := 0
	for ; i+8 <= len(v); i += 8 {
		x = splitmix(&x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	if i < len(v) {
		x = splitmix(&x)
		for j := 0; i < len(v); i, j = i+1, j+8 {
			v[i] = byte(x >> j)
		}
	}
}

// Each invokes fn for every operation in order, stopping on error. The
// value buffer is reused between calls: it is valid only for the
// duration of fn, which must copy it to retain it (inserting into
// simulated persistent memory copies by construction).
func (l Load) Each(fn func(key uint64, value []byte) error) error {
	l = l.withDefaults()
	buf := make([]byte, l.ValueSize)
	for _, k := range l.keys() {
		l.fillValue(k, buf)
		if err := fn(k, buf); err != nil {
			return err
		}
	}
	return nil
}

// Oracle returns the expected final contents.
func (l Load) Oracle() map[uint64][]byte {
	l = l.withDefaults()
	m := make(map[uint64][]byte, l.N)
	for _, k := range l.keys() {
		m[k] = l.Value(k)
	}
	return m
}
