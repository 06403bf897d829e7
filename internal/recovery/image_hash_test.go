package recovery

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// imageHash is the representation-independent hash of an image: the
// first 8 bytes of SHA-256 over (page index as uint64 LE, page bytes)
// for every page that is not all zero, in ascending page order.
func imageHash(img *pmem.Image) string {
	h := sha256.New()
	var zero [pmem.PageSize]byte
	var idx [8]byte
	img.ForEachPage(func(base uint64, page []byte) {
		if bytes.Equal(page, zero[:len(page)]) {
			return
		}
		binary.LittleEndian.PutUint64(idx[:], base/pmem.PageSize)
		h.Write(idx[:])
		h.Write(page)
	})
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// hashCampaigns are the stride-1 campaigns whose crash images
// testdata/crash_images.golden pins: one W=1 hashtable campaign per
// scheme, one windowed kv-btree campaign, and one 2-core, 2-socket
// campaign.
func hashCampaigns() map[string]CampaignConfig {
	cs := map[string]CampaignConfig{
		"kv-btree-SLPMT-w16":   {Workload: "kv-btree", Scheme: "SLPMT", N: 40, ValueSize: 32, CommitWindow: 16},
		"hashtable-SLPMT-2c2s": {Workload: "hashtable", Scheme: "SLPMT", N: 40, ValueSize: 32, Cores: 2, Sockets: 2},
	}
	for _, s := range []string{"FG", "ATOM", "EDE", "SLPMT"} {
		cs["hashtable-"+s+"-w1"] = CampaignConfig{Workload: "hashtable", Scheme: s, N: 40, ValueSize: 32, Mixed: true}
	}
	return cs
}

// TestCrashImagesMatchGolden recomputes, at every stride-1 crash point
// of hashCampaigns, the hash of the crash image and of the image after
// recovery, and requires both to equal the golden hashes, which were
// taken from a flat byte-array image.
func TestCrashImagesMatchGolden(t *testing.T) {
	want := readImageGolden(t)
	cs := hashCampaigns()
	if len(want) != len(cs) {
		t.Fatalf("golden file has %d campaigns, want %d", len(want), len(cs))
	}
	for name, cfg := range cs {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := crashImageHashes(t, cfg)
			if len(got) != len(want[name]) {
				t.Fatalf("%d crash points, golden has %d", len(got), len(want[name]))
			}
			for i := range got {
				if got[i] != want[name][i] {
					t.Fatalf("point %d: got %q, golden %q", i, got[i], want[name][i])
				}
			}
		})
	}
}

// readImageGolden returns testdata/crash_images.golden's lines by
// campaign, each without its campaign name.
func readImageGolden(t *testing.T) map[string][]string {
	f, err := os.Open("testdata/crash_images.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			name, rest, _ := strings.Cut(line, " ")
			want[name] = append(want[name], rest)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunPointMatchesGolden runs every stride-1 crash point of two
// hashCampaigns alone through RunPoint: each point must pass, return
// the golden crash image before recovery, and the points' results must
// add up to the campaign's.
func TestRunPointMatchesGolden(t *testing.T) {
	want := readImageGolden(t)
	for _, name := range []string{"hashtable-SLPMT-w1", "kv-btree-SLPMT-w16"} {
		cfg := hashCampaigns()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var sum CampaignResult
			for _, line := range want[name] {
				var point uint64
				var crash string
				if _, err := fmt.Sscanf(line, "%d %s", &point, &crash); err != nil {
					t.Fatalf("golden line %q: %v", line, err)
				}
				img, crashed, res, err := RunPoint(cfg, point)
				if err != nil {
					t.Fatalf("point %d: %v", point, err)
				}
				if !crashed || imageHash(img) != crash {
					t.Fatalf("point %d: crashed=%v image %s, golden %s", point, crashed, imageHash(img), crash)
				}
				sum.PointsTested += res.PointsTested
				sum.PendingAccepted += res.PendingAccepted
				sum.RecordsApplied += res.RecordsApplied
				sum.LeakedBytes += res.LeakedBytes
			}
			cfg.Parallel = 1
			res, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum.TotalPersistEvents = res.TotalPersistEvents
			if sum != *res {
				t.Errorf("points add up to %+v, campaign %+v", sum, *res)
			}
		})
	}
}

// crashImageHashes runs every stride-1 crash point of cfg and returns,
// per point, "event crash-hash recovered-hash". Like a serial sweep it
// runs every point, and the reference run before them, on one verifier,
// so each point executes on a platform Reset from the one before and
// the golden hashes pin the reset state at every point.
func crashImageHashes(t *testing.T, cfg CampaignConfig) []string {
	ops := genOps(cfg)
	v := new(verifier)
	ref, total, err := v.execute(cfg, ops, 0)
	if err != nil || ref.crashed {
		t.Fatalf("reference run: crashed=%v err=%v", ref.crashed, err)
	}
	setup, err := setupPersists(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for p := setup + 1; p <= total; p++ {
		info, _, err := v.execute(cfg, ops, p)
		if err != nil {
			t.Fatalf("point %d: %v", p, err)
		}
		if !info.crashed {
			break
		}
		crash := imageHash(info.img)
		rec := workloads.MustNew(cfg.Workload).(workloads.Recoverable)
		if _, _, err := v.recover(info.img, rec, max(cfg.Cores, 1), max(cfg.Sockets, 1)); err != nil {
			t.Fatalf("point %d: %v", p, err)
		}
		out = append(out, fmt.Sprintf("%d %s %s", p, crash, imageHash(info.img)))
	}
	return out
}
