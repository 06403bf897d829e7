package recovery

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// stubRec is a Recoverable whose durable structure is the map want:
// CheckDurable compares the image's RootCount with the oracle's size
// first, like every workload, and then the oracle with want, naming
// the comparison (1 for its first) in its error.
type stubRec struct {
	want     map[uint64][]byte
	compared int
}

func (s *stubRec) Recover(*pmem.Image) error                  { return nil }
func (s *stubRec) Reach(*pmem.Image) ([]txheap.Extent, error) { return nil, nil }

func (s *stubRec) CheckDurable(img *pmem.Image, oracle map[uint64][]byte) error {
	if err := workloads.CheckCount("stub", workloads.ReadRoot(img, workloads.RootCount), oracle); err != nil {
		return err
	}
	s.compared++
	if !maps.EqualFunc(s.want, oracle, bytes.Equal) {
		return fmt.Errorf("comparison %d differs", s.compared)
	}
	return nil
}

// windowCase is one crash: the completed ops, the pending one (-1 for
// none), and the durable state, which is the state after the first
// image ops of done+pending, or, when corrupt, that state with one
// value changed.
type windowCase struct {
	cfg     CampaignConfig
	done    []int
	pending int
	image   int
	corrupt bool
}

// run verifies c's image with verifyPrefix over window(c.cfg) and
// returns the point's PendingAccepted and error.
func (c windowCase) run(ops []ycsb.MixOp) (pendingAccepted int, err error) {
	seq := append([]int(nil), c.done...)
	if c.pending >= 0 {
		seq = append(seq, c.pending)
	}
	want := map[uint64][]byte{}
	for _, i := range seq[:c.image] {
		ops[i].ApplyTo(want)
	}
	if c.corrupt {
		for k := range want {
			want[k] = []byte("corrupt")
			break
		}
	}
	m := pmem.NewMemory(16 << 20)
	m.WriteU64(uint64(mem.DefaultLayout(m.Size()).RootBase)+8*workloads.RootCount, uint64(len(want)))
	info := runInfo{img: m.View(), done: c.done, pending: c.pending}
	rec := &stubRec{want: want}
	var res CampaignResult
	err = new(verifier).verifyPrefix(rec, ops, info, window(c.cfg, &info), &res)
	return res.PendingAccepted, err
}

// TestVerifyPrefixWindow pins the crash oracle's window on synthetic
// runs: the prefixes it accepts at W=1 with and without an operation
// in flight and under group commit, when it counts the in-flight
// transaction durable, and which candidate's error a failure reports.
func TestVerifyPrefixWindow(t *testing.T) {
	// Ops 0-5 insert keys 1-6; ops 6 and 7 update key 6, and op 8
	// deletes it.
	var ops []ycsb.MixOp
	for k := uint64(1); k <= 6; k++ {
		ops = append(ops, ycsb.MixOp{Kind: ycsb.OpInsert, Key: k, Value: []byte{byte(k)}})
	}
	ops = append(ops, ycsb.MixOp{Kind: ycsb.OpUpdate, Key: 6, Value: []byte("a")},
		ycsb.MixOp{Kind: ycsb.OpUpdate, Key: 6, Value: []byte("b")},
		ycsb.MixOp{Kind: ycsb.OpDelete, Key: 6})
	w1 := CampaignConfig{CommitWindow: 1}
	w2 := CampaignConfig{CommitWindow: 2}
	first5 := []int{0, 1, 2, 3, 4}

	for _, tc := range []struct {
		name    string
		c       windowCase
		pending int    // PendingAccepted of a pass
		err     string // suffix of the error; "" for a pass
	}{
		{"W=1 no op pending, image current", windowCase{w1, first5, -1, 5, false}, 0, ""},
		{"W=1 no op pending, image one op behind", windowCase{w1, first5, -1, 4, false}, 0,
			"window of 1 (no op pending): stub durable: count 4, oracle 5"},
		{"W=1 op pending, reverted", windowCase{w1, first5[:4], 4, 4, false}, 0, ""},
		{"W=1 op pending, committed", windowCase{w1, first5[:4], 4, 5, false}, 1, ""},
		{"W=1 op pending, one op behind", windowCase{w1, first5[:4], 4, 3, false}, 0,
			"window of 2 (pending key 5): stub durable: count 3, oracle 5"},
		// W=2 on one core: the newest 3 of the prefixes 0-6.
		{"W=2 oldest in window", windowCase{w2, first5, 5, 4, false}, 0, ""},
		{"W=2 newest", windowCase{w2, first5, 5, 6, false}, 1, ""},
		{"W=2 one beyond the window", windowCase{w2, first5, 5, 3, false}, 0,
			"window of 3 (pending key 6): stub durable: count 3, oracle 6"},
		// Only the oldest candidate has the image's size, so its
		// comparison is the one reported, not the newest's count.
		{"W=2 only the oldest compared", windowCase{w2, first5, 5, 4, true}, 0,
			"window of 3 (pending key 6): comparison 1 differs"},
		// Every candidate has the image's size: the newest's comparison.
		{"W=2 all compared", windowCase{w2, []int{0, 1, 2, 3, 4, 5, 6}, 7, 8, true}, 0,
			"window of 3 (pending key 6): comparison 3 differs"},
		// Insert 6, update it twice, then delete it: the image equals
		// the oldest candidate and the newest, where op 8 committed.
		{"W=4 equal oldest and newest", windowCase{CampaignConfig{CommitWindow: 4}, []int{0, 1, 2, 3, 4, 5, 6, 7}, 8, 5, false}, 1, ""},
	} {
		pending, err := tc.c.run(ops)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v, want a pass", tc.name, err)
		case tc.err != "" && (err == nil || !strings.HasSuffix(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one ending %q", tc.name, err, tc.err)
		case pending != tc.pending:
			t.Errorf("%s: PendingAccepted %d, want %d", tc.name, pending, tc.pending)
		}
	}
}
