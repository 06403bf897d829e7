package recovery

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// wordRec is a one-word log record.
func wordRec(addr mem.Addr, v uint64) logfmt.Record {
	return logfmt.Record{Addr: addr, Data: binary.LittleEndian.AppendUint64(nil, v)}
}

// boundaryRec is a transaction-boundary record carrying global sequence g.
func boundaryRec(g uint64) logfmt.Record { return wordRec(logfmt.BoundaryAddr, g) }

// TestSplitUnits pins how an epoch-stream region is cut into
// per-transaction units: each boundary opens a unit holding the records
// up to the next boundary, even none, and records ahead of the first
// boundary form one unit keyed by the header.
func TestSplitUnits(t *testing.T) {
	hdr := logfmt.Header{Seq: 9, Epoch: 4}
	a, b, c := wordRec(64, 1), wordRec(72, 2), wordRec(80, 3)
	// unit is a logUnit in brief: gseq, or -1 for the header-keyed unit.
	type unit struct {
		gseq int
		recs []logfmt.Record
	}
	for _, tc := range []struct {
		name string
		recs []logfmt.Record
		want []unit
	}{
		{"empty", nil, nil},
		{"records ahead of the first boundary", []logfmt.Record{a, b, boundaryRec(5), c},
			[]unit{{-1, []logfmt.Record{a, b}}, {5, []logfmt.Record{c}}}},
		{"back-to-back boundaries", []logfmt.Record{boundaryRec(3), boundaryRec(4), a},
			[]unit{{3, []logfmt.Record{}}, {4, []logfmt.Record{a}}}},
		{"trailing boundary", []logfmt.Record{boundaryRec(1), a, b, boundaryRec(2)},
			[]unit{{1, []logfmt.Record{a, b}}, {2, []logfmt.Record{}}}},
		{"no boundary", []logfmt.Record{a, b},
			[]unit{{-1, []logfmt.Record{a, b}}}},
	} {
		for _, undo := range []bool{false, true} {
			got := splitUnits([]logUnit{{seq: 77}}, tc.recs, hdr, undo)[1:]
			if len(got) != len(tc.want) {
				t.Fatalf("%s: %d units, want %d", tc.name, len(got), len(tc.want))
			}
			for i, w := range tc.want {
				u := got[i]
				want := logUnit{epoch: hdr.Epoch, undo: undo, recs: u.recs}
				if w.gseq < 0 {
					want.seq = hdr.Seq
				} else {
					want.gseq, want.hasG = uint64(w.gseq), true
				}
				if fmt.Sprint(u) != fmt.Sprint(want) || !slices.EqualFunc(u.recs, w.recs, func(x, y logfmt.Record) bool {
					return x.Addr == y.Addr && string(x.Data) == string(y.Data)
				}) {
					t.Errorf("%s (undo=%v): unit %d = %+v, want %+v with records %v", tc.name, undo, i, u, want, w.recs)
				}
			}
		}
	}
}

// TestApplyLogsOrder writes two cores' epoch streams whose transactions
// interleave in global order (1 and 3 on core 0, 2 on core 1) and
// checks the order recovery applies them in: redo units replay forward
// by global sequence, undo units revert backwards by global sequence,
// each undo unit's records in reverse.
func TestApplyLogsOrder(t *testing.T) {
	layouts := mem.MultiLayoutSockets(pmem.DefaultSize, 2, 1)
	x, y := layouts[0].HeapBase, layouts[0].HeapBase+8
	streams := [2][]logfmt.Record{
		{boundaryRec(1), wordRec(x, 10), wordRec(x, 11), boundaryRec(3), wordRec(x, 30), wordRec(y, 30)},
		{boundaryRec(2), wordRec(x, 20), wordRec(y, 20)},
	}
	for _, tc := range []struct {
		mode uint64
		x, y uint64
	}{
		// Replay 1, 2, 3: the last writes of unit 3 win.
		{logfmt.ModeRedo, 30, 30},
		// Revert 3, 2, 1, unit 1 from its last record back: its first
		// record, the pre-image, wins; y keeps unit 2's pre-image.
		{logfmt.ModeUndo, 10, 20},
	} {
		img := pmem.New(pmem.Config{}).Crash()
		for core, recs := range streams {
			end := uint64(logfmt.RecordsStart)
			for _, r := range recs {
				img.WriteU64(layouts[core].LogBase+end, logfmt.EncodeAddrWord(r.Addr, len(r.Data), 0))
				img.Write(layouts[core].LogBase+end+8, r.Data)
				end += 8 + uint64(len(r.Data))
			}
			// Undo reverts the open suffix [CommittedTo, Watermark);
			// redo replays the committed prefix [RecordsStart, CommittedTo).
			hdr := logfmt.Header{Magic: logfmt.Magic, Mode: tc.mode, Epoch: 1, Watermark: end, CommittedTo: end}
			if tc.mode == logfmt.ModeUndo {
				hdr.CommittedTo = logfmt.RecordsStart
			}
			line := logfmt.EncodeHeader(hdr)
			img.Write(layouts[core].LogBase, line[:])
		}
		rep, err := new(verifier).applyLogs(img, layouts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RecordsApplied != 6 {
			t.Errorf("mode %d: %d records applied, want 6", tc.mode, rep.RecordsApplied)
		}
		if gx, gy := img.ReadU64(x), img.ReadU64(y); gx != tc.x || gy != tc.y {
			t.Errorf("mode %d: x=%d y=%d, want x=%d y=%d", tc.mode, gx, gy, tc.x, tc.y)
		}
	}
}

// storedPoint is one stored crash image of a crash-1c-shaped campaign
// (240 ops of 64 B values at seed 1), crashed halfway through the run's
// persist events after setup.
type storedPoint struct {
	name string
	cfg  CampaignConfig
	ops  []campaignOp
	info runInfo
}

func storedPoints(tb testing.TB) []storedPoint {
	var out []storedPoint
	for _, cfg := range []CampaignConfig{
		{Workload: "hashtable", Scheme: "SLPMT", N: 240, ValueSize: 64, Seed: 1, Mixed: true},
		{Workload: "kv-btree", Scheme: "SLPMT", N: 240, ValueSize: 64, Seed: 1, CommitWindow: 16},
	} {
		ops := genOps(cfg)
		_, total, err := new(verifier).execute(cfg, ops, 0)
		if err != nil {
			tb.Fatal(err)
		}
		setup, err := new(verifier).setupPersists(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		info, _, err := new(verifier).execute(cfg, ops, setup+(total-setup)/2)
		if err != nil || !info.crashed {
			tb.Fatalf("%s: crashed=%v err=%v", cfg.Workload, info.crashed, err)
		}
		name := fmt.Sprintf("%s-w%d", cfg.Workload, max(cfg.CommitWindow, 1))
		out = append(out, storedPoint{name, cfg, ops, info})
	}
	return out
}

// clone returns the point with a copy of its image: verification
// repairs an image in place.
func (p *storedPoint) clone() runInfo {
	info := p.info
	info.img = pmem.New(pmem.Config{Size: p.info.img.Size()}).Crash()
	p.info.img.ForEachPage(func(base uint64, page []byte) { info.img.Write(base, page) })
	return info
}

// TestVerifyPointAllocs pins the host allocations of verifying one
// crash point with a verifier that has verified one before: the fresh
// workload instance, one object for both structures. The key sets and
// the reachability scan's extent slice come from the workloads' free
// lists (recovery hands the slice back after the heap rebuild), and
// both the W=1 check and the prefix search skip the candidates of the
// wrong size unchecked, building a rejected candidate's error only when
// every candidate fails. The limits are the measured 1 and 1, with no
// margin: the count is exact. Before the verifier existed these points
// cost 41 and 75 allocations; before the key-set free list, the
// pre-sized reach and the count skip, 12 and 29; before the skipped
// candidates' errors were deferred, 2 and 3; before the extent free
// list, 2 and 2.
func TestVerifyPointAllocs(t *testing.T) {
	limits := map[string]float64{"hashtable-w1": 1, "kv-btree-w16": 1}
	for _, p := range storedPoints(t) {
		const runs = 4
		infos := make([]runInfo, runs+1) // AllocsPerRun adds a warm-up run
		for i := range infos {
			infos[i] = p.clone()
		}
		v := new(verifier)
		var err error
		got := testing.AllocsPerRun(runs, func() {
			var res CampaignResult
			err = v.verifyPoint(p.cfg, p.ops, infos[0], &res)
			infos = infos[1:]
		})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got > limits[p.name] {
			t.Errorf("%s: %.0f allocations per verified point, want at most %.0f", p.name, got, limits[p.name])
		}
		t.Logf("%s: %.0f allocations per verified point", p.name, got)
	}
}

// BenchmarkVerifyPoint measures recovering and verifying one stored
// crash image with a reused verifier: the recovery layer's own host
// cost per crash point, without the run that produced the image.
func BenchmarkVerifyPoint(b *testing.B) {
	for _, p := range storedPoints(b) {
		b.Run(p.name, func(b *testing.B) {
			v := new(verifier)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				info := p.clone()
				var res CampaignResult
				b.StartTimer()
				if err := v.verifyPoint(p.cfg, p.ops, info, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
