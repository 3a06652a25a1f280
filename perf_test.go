package mmptcp

import "testing"

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
