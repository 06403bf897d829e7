package workloads_test

import (
	"errors"
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// plain hides every method beyond Workload, like a structure that
// implements neither Mutable nor Ranger.
type plain struct{ workloads.Workload }

// TestApply runs each op kind through Apply on a structure holding key
// 1: a structure without the op's interface, or one whose own method
// does not implement the op, gives ErrUnsupported rather than a panic,
// and a read of a missing key is an error.
func TestApply(t *testing.T) {
	value := []byte("01234567")
	for _, tc := range []struct {
		name        string
		workload    string
		hide        bool
		op          ycsb.MixOp
		unsupported bool
		fails       bool
	}{
		{name: "insert", workload: "hashtable", op: ycsb.MixOp{Kind: ycsb.OpInsert, Key: 2, Value: value}},
		{name: "read", workload: "hashtable", op: ycsb.MixOp{Kind: ycsb.OpRead, Key: 1}},
		{name: "read-miss", workload: "hashtable", op: ycsb.MixOp{Kind: ycsb.OpRead, Key: 3}, fails: true},
		{name: "update", workload: "hashtable", op: ycsb.MixOp{Kind: ycsb.OpUpdate, Key: 1, Value: value}},
		{name: "delete", workload: "hashtable", op: ycsb.MixOp{Kind: ycsb.OpDelete, Key: 1}},
		{name: "scan", workload: "kv-btree", op: ycsb.MixOp{Kind: ycsb.OpScan, Key: 1, ScanLen: 2}},
		{name: "scan-no-ranger", workload: "hashtable", op: ycsb.MixOp{Kind: ycsb.OpScan, Key: 1, ScanLen: 2}, unsupported: true},
		{name: "update-no-mutable", workload: "hashtable", hide: true, op: ycsb.MixOp{Kind: ycsb.OpUpdate, Key: 1, Value: value}, unsupported: true},
		{name: "delete-no-mutable", workload: "hashtable", hide: true, op: ycsb.MixOp{Kind: ycsb.OpDelete, Key: 1}, unsupported: true},
		{name: "delete-unimplemented", workload: "rbtree", op: ycsb.MixOp{Kind: ycsb.OpDelete, Key: 1}, unsupported: true},
		{name: "unknown-kind", workload: "hashtable", op: ycsb.MixOp{Kind: ycsb.OpDelete + 1, Key: 1}, unsupported: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := workloads.MustNew(tc.workload)
			sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
			if err := w.Setup(sys); err != nil {
				t.Fatal(err)
			}
			if err := w.Insert(sys, 1, []byte("abcdefgh")); err != nil {
				t.Fatal(err)
			}
			if tc.hide {
				w = plain{w}
			}
			err := workloads.Apply(w, sys, tc.op)
			switch {
			case tc.unsupported:
				if !errors.Is(err, workloads.ErrUnsupported) {
					t.Fatalf("got %v, want ErrUnsupported", err)
				}
			case tc.fails:
				if err == nil || errors.Is(err, workloads.ErrUnsupported) {
					t.Fatalf("got %v, want an error other than ErrUnsupported", err)
				}
			case err != nil:
				t.Fatal(err)
			}
		})
	}
}
