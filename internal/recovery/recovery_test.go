package recovery_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// TestCrashCampaignAllWorkloads crashes every workload at sampled
// persist events under SLPMT and verifies the recovered durable state.
func TestCrashCampaignAllWorkloads(t *testing.T) {
	for _, w := range workloads.Names() {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			res, err := recovery.RunCampaign(recovery.CampaignConfig{
				Workload:  w,
				Scheme:    "SLPMT",
				N:         60,
				ValueSize: 64,
				Stride:    17,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.PointsTested < 10 {
				t.Fatalf("too few crash points tested: %d", res.PointsTested)
			}
			t.Logf("%s: %d points over %d events, %d log records applied, %d pending-accepted, %d bytes collected",
				w, res.PointsTested, res.TotalPersistEvents, res.RecordsApplied, res.PendingAccepted, res.LeakedBytes)
		})
	}
}

// TestCrashCampaignSchemes exercises the hashtable (the structure with
// the richest annotation mix: log-free values, lazy rehash moves)
// across every scheme, including the redo variants.
func TestCrashCampaignSchemes(t *testing.T) {
	for _, s := range []string{"FG", "FG+LG", "FG+LZ", "SLPMT", "SLPMT-CL", "ATOM", "EDE", "SLPMT-spec", "FG-redo", "SLPMT-redo"} {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			res, err := recovery.RunCampaign(recovery.CampaignConfig{
				Workload:  "hashtable",
				Scheme:    s,
				N:         50,
				ValueSize: 48,
				Stride:    23,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.PointsTested == 0 {
				t.Fatal("no crash points tested")
			}
		})
	}
}

// TestCrashCampaignMixedOps crashes workloads during interleaved
// insert/update/delete transactions — the removal and value-replacement
// recovery paths (unlink reverts, freed-block resurrection, prefix
// collapse) under every sampled crash point.
func TestCrashCampaignMixedOps(t *testing.T) {
	for _, w := range []string{"hashtable", "heap", "avl", "dlist", "kv-ctree", "kv-rtree"} {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			res, err := recovery.RunCampaign(recovery.CampaignConfig{
				Workload:  w,
				Scheme:    "SLPMT",
				N:         80,
				ValueSize: 48,
				Mixed:     true,
				Stride:    19,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.PointsTested < 10 {
				t.Fatalf("too few crash points: %d", res.PointsTested)
			}
			t.Logf("%s mixed: %d points over %d events, %d records applied, %d pending-accepted",
				w, res.PointsTested, res.TotalPersistEvents, res.RecordsApplied, res.PendingAccepted)
		})
	}
}

// TestCorruptWatermarkReported: recovery copies only the written
// prefix of a log area, yet a header bound past the area must still
// surface as the parsers' corruption error, naming the bad bound.
func TestCorruptWatermarkReported(t *testing.T) {
	layout := mem.DefaultLayout(pmem.DefaultSize)
	beyond := layout.LogSize + 64
	for _, tc := range []struct {
		name string
		hdr  logfmt.Header
		want string
	}{
		{"per-txn undo", logfmt.Header{State: logfmt.StateActive, Mode: logfmt.ModeUndo, Watermark: beyond},
			fmt.Sprintf("watermark %d beyond log area", beyond)},
		{"epoch undo", logfmt.Header{Mode: logfmt.ModeUndo, Watermark: beyond, CommittedTo: logfmt.RecordsStart},
			fmt.Sprintf("region end %d beyond log area", beyond)},
		{"epoch redo", logfmt.Header{Mode: logfmt.ModeRedo, Watermark: logfmt.RecordsStart, CommittedTo: beyond},
			fmt.Sprintf("region end %d beyond log area", beyond)},
	} {
		img := pmem.New(pmem.Config{}).Crash()
		tc.hdr.Magic = logfmt.Magic
		line := logfmt.EncodeHeader(tc.hdr)
		img.Write(layout.LogBase, line[:])
		_, err := recovery.ApplyLog(img)
		if !errors.Is(err, logfmt.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
