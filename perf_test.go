package mmptcp

import (
	"reflect"
	"testing"

	"repro/internal/routing"
)

// incrementalFaultSuite is the fault matrix (cable cuts with repair,
// whole-switch crash/restart, sampled per-cable agg failures) under
// global routing — every fault class that drives the control plane.
func incrementalFaultSuite() []Config {
	var configs []Config

	cables := tiny(ProtoMMPTCP, 40)
	cables.MaxSimTime = 15 * Second
	cables.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
		ReconvergeDelay: 20 * Millisecond,
	}
	cables.Routing.Mode = RoutingGlobal
	configs = append(configs, cables)

	crash := tiny(ProtoTCP, 40)
	crash.MaxSimTime = 15 * Second
	crash.Faults = FaultsConfig{
		Events:          FailSwitches([]int{16}, 200*Millisecond, 800*Millisecond),
		ReconvergeDelay: 10 * Millisecond,
	}
	crash.Routing.Mode = RoutingGlobal
	configs = append(configs, crash)

	model := tiny(ProtoMMPTCP, 40)
	model.MaxSimTime = 15 * Second
	model.Faults = FaultsConfig{
		Model: FaultModel{
			Layers:  []FaultLayerModel{{Layer: LayerAgg, MTBF: 4 * Second, MTTR: 100 * Millisecond}},
			Horizon: 4 * Second,
		},
		ReconvergeDelay: 10 * Millisecond,
	}
	model.Routing.Mode = RoutingGlobal
	configs = append(configs, model)

	return configs
}

// TestIncrementalRecomputeResultsByteIdentical is the end-to-end half of
// the incremental-recompute safety argument (the routing package's
// torture test is the table-level half): across the PR-3 fault suite,
// the incremental control plane must produce Results byte-identical to a
// forced full recompute. Only the work counters that measure the
// incremental win itself (DstRecomputed/DstSkipped/BFSRuns) are
// excluded from the comparison — they are what changes, by design.
func TestIncrementalRecomputeResultsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fault suite is slow")
	}
	run := func(full bool) []*Results {
		routing.ForceFullRecompute = full
		defer func() { routing.ForceFullRecompute = false }()
		var out []*Results
		for _, cfg := range incrementalFaultSuite() {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Normalise the counters that measure the incremental win.
			res.Routing.DstRecomputed = 0
			res.Routing.DstSkipped = 0
			res.Routing.BFSRuns = 0
			out = append(out, res)
		}
		return out
	}
	incremental := run(false)
	full := run(true)
	for i := range incremental {
		if !reflect.DeepEqual(incremental[i], full[i]) {
			t.Errorf("config %d: incremental recompute diverged from full recompute", i)
		}
	}
}

// TestChurnRecomputeSavings quantifies the incremental win at unit-test
// scale: under the same churn, the incremental plane must run several
// times fewer BFS passes and destination reconciliations than recomputes
// x destinations (the full-recompute cost).
func TestChurnRecomputeSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run is slow")
	}
	cfg := tiny(ProtoTCP, 30)
	cfg.MaxSimTime = 20 * Second
	cfg.Faults = FaultsConfig{
		Model: FaultModel{
			Layers:  []FaultLayerModel{{Layer: LayerHost, MTBF: 2 * Second, MTTR: 50 * Millisecond}},
			Horizon: 10 * Second,
		},
		ReconvergeDelay: 5 * Millisecond,
	}
	cfg.Routing.Mode = RoutingGlobal
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Routing
	if st.Recomputes < 4 {
		t.Fatalf("churn model produced only %d recomputes; scenario too quiet", st.Recomputes)
	}
	// A full recompute reconciles every host of the K=4 FatTree
	// (K pods x K/2 edges x HostsPerEdge) on every pass.
	fullCost := st.Recomputes * cfg.K * cfg.K / 2 * cfg.HostsPerEdge
	touched := st.DstRecomputed
	if touched+st.DstSkipped != fullCost {
		t.Fatalf("recomputed %d + skipped %d destinations != %d visits; host count wrong", touched, st.DstSkipped, fullCost)
	}
	t.Logf("recomputes=%d dst-recomputed=%d dst-skipped=%d bfs-runs=%d (full cost would be %d)",
		st.Recomputes, touched, st.DstSkipped, st.BFSRuns, fullCost)
	if touched*5 > fullCost {
		t.Errorf("incremental pass reconciled %d destinations; want >=5x fewer than the %d a full recompute would", touched, fullCost)
	}
	if st.DstSkipped == 0 {
		t.Error("no destinations were ever skipped under pure host-layer churn")
	}
}
