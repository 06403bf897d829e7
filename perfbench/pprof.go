package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// selfSamples decodes a gzipped pprof profile (profile.proto) and
// returns the sample count charged to each leaf function — the self
// time — over the samples carrying the given label key. Only the fields
// needed for that are read: samples' location IDs, first value and label
// keys, locations' innermost line, function names and the string table.
func selfSamples(gz []byte, labelKey string) (map[string]int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		leafLoc uint64
		count   int64
		labels  []int64 // label key string indexes
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location ID -> innermost function ID
	funcName := map[uint64]int64{} // function ID -> string index
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					ids, err := uints(v, b)
					if err == nil && first && len(ids) > 0 {
						s.leafLoc, first = ids[0], false
					}
					return err
				case 2: // value
					vals, err := uints(v, b)
					if err == nil && s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0])
					}
					return err
				case 3: // Label
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							s.labels = append(s.labels, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			sawLine := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !sawLine: // Line; the first is the innermost
					sawLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(idx int64) string {
		if idx >= 0 && int(idx) < len(strs) {
			return strs[idx]
		}
		return ""
	}
	out := map[string]int{}
	for _, s := range samples {
		labelled := false
		for _, k := range s.labels {
			labelled = labelled || str(k) == labelKey
		}
		if !labelled {
			continue
		}
		name := "unknown"
		if idx, ok := funcName[locFunc[s.leafLoc]]; ok {
			name = str(idx)
		}
		out[name] += int(s.count)
	}
	return out, nil
}

var errTruncated = errors.New("pprof: truncated message")

// fields walks a protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// uints decodes a repeated varint field in either encoding: one value
// (wire type 0, body nil) or a packed run (wire type 2).
func uints(v uint64, body []byte) ([]uint64, error) {
	if body == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		body = body[n:]
	}
	return out, nil
}
