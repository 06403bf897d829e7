package recovery

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenCampaigns is the matrix testdata/campaign_results.golden pins,
// in file order: four structures × W∈{1,4,16} × {1,2} cores × mixed
// on/off at N=60, stride 3; one 2-core 2-socket windowed hashtable
// campaign; and the three baseline schemes on a mixed hashtable.
// Invalid combinations (mixed across cores, updates a structure does
// not support) are kept: their error text is part of the contract.
func goldenCampaigns() (names []string, cfgs []CampaignConfig) {
	add := func(name string, cfg CampaignConfig) {
		names = append(names, name)
		cfgs = append(cfgs, cfg)
	}
	base := CampaignConfig{Scheme: "SLPMT", N: 60, ValueSize: 32, Stride: 3}
	for _, wl := range []string{"hashtable", "kv-btree", "rbtree", "kv-ctree"} {
		for _, w := range []int{1, 4, 16} {
			for _, cores := range []int{1, 2} {
				for _, mixed := range []bool{false, true} {
					cfg := base
					cfg.Workload, cfg.CommitWindow, cfg.Cores, cfg.Mixed = wl, w, cores, mixed
					add(fmt.Sprintf("%s-w%d-%dc-mixed=%v", wl, w, cores, mixed), cfg)
				}
			}
		}
	}
	cfg := base
	cfg.Workload, cfg.CommitWindow, cfg.Cores, cfg.Sockets = "hashtable", 4, 2, 2
	add("hashtable-w4-2c2s", cfg)
	for _, s := range []string{"FG", "ATOM", "EDE"} {
		cfg := base
		cfg.Workload, cfg.Scheme, cfg.Mixed = "hashtable", s, true
		add("hashtable-"+s+"-mixed", cfg)
	}
	return names, cfgs
}

// campaignLine renders every CampaignResult field and the error text.
func campaignLine(name string, res *CampaignResult, err error) string {
	var r CampaignResult
	if res != nil {
		r = *res
	}
	e := "<nil>"
	if err != nil {
		e = err.Error()
	}
	return fmt.Sprintf("%s total=%d points=%d pending=%d records=%d leaked=%d err=%s",
		name, r.TotalPersistEvents, r.PointsTested, r.PendingAccepted, r.RecordsApplied, r.LeakedBytes, e)
}

// TestCampaignResultsMatchGolden pins RunCampaign's observable contract
// — every CampaignResult field and the error string — over
// goldenCampaigns, against results recorded before the campaign oracle
// became index-based.
func TestCampaignResultsMatchGolden(t *testing.T) {
	const path = "testdata/campaign_results.golden"
	names, cfgs := goldenCampaigns()
	got := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := RunCampaign(cfg)
		got[i] = campaignLine(names[i], res, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden file has %d campaigns, want %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("campaign %d:\n  got    %s\n  golden %s", i, got[i], want[i])
		}
	}
}
