package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// critGoldenCells are the runs whose full critical-path reports
// testdata/critpath_render.golden pins: a 2-core hashtable that spills
// the stream ring several times, a 4-core 2-socket group-commit
// kv-btree, and a 4-core FG rbtree.
var critGoldenCells = []struct {
	name string
	cfg  RunConfig
}{
	{"hashtable SLPMT 2c", RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 1200, ValueSize: 64, Cores: 2}},
	{"kv-btree SLPMT 4c 2s W=16", RunConfig{Scheme: "SLPMT", Workload: "kv-btree", N: 300, ValueSize: 64, Cores: 4, Sockets: 2, CommitWindow: 16}},
	{"rbtree FG 4c", RunConfig{Scheme: "FG", Workload: "rbtree", N: 300, ValueSize: 64, Cores: 4}},
}

// critGoldenReport renders every golden cell's DAG size and its
// Render(64) report, in cell order.
func critGoldenReport() string {
	var b strings.Builder
	for _, c := range critGoldenCells {
		cfg := c.cfg
		cfg.CritPath = true
		an := Run(cfg).CritPath
		fmt.Fprintf(&b, "== %s ==\nnodes %d edges %d\n%s\n", c.name, an.Nodes, an.Edges, an.Render(64))
	}
	return b.String()
}

// TestCritPathRenderGolden pins the analyzer's whole report (the path,
// the DAG's size, the slack top, the what-ifs and 64 hot lines) on three
// runs of different shape against the output the analyzer produced
// before its slack pass moved onto the per-core node lists.
func TestCritPathRenderGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "critpath_render.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := critGoldenReport(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("report differs from the golden at line %d:\ngot  %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report has %d lines, golden %d", len(gl), len(wl))
	}
}
