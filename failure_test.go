package mmptcp

import "testing"

// faultedConfig is the failure scenario the acceptance tests share: the
// small FatTree with two agg-core cables cut shortly after the short
// flows start arriving, repaired mid-run, with a routing reconvergence
// delay that opens a real blackhole window.
func faultedConfig(proto Protocol, flows int) Config {
	cfg := tiny(proto, flows)
	cfg.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 600*Millisecond),
		ReconvergeDelay: 50 * Millisecond,
	}
	return cfg
}

func TestRunWithFaultsSmoke(t *testing.T) {
	res, err := Run(faultedConfig(ProtoMMPTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents != 8 { // 2 cables x 2 directions x (down + up)
		t.Errorf("fault events = %d, want 8", res.FaultEvents)
	}
	if res.Blackholed == 0 {
		t.Error("no packets blackholed despite a 50ms blackhole window")
	}
	agg := res.Layers[LayerAgg]
	if agg.Blackholed == 0 || agg.BlackholedBytes == 0 {
		t.Errorf("agg layer blackhole accounting empty: %+v", agg)
	}
	if agg.DownLinks != 4 {
		t.Errorf("agg down links = %d, want 4", agg.DownLinks)
	}
	// Both directions of both cables were down for 450ms each.
	if want := 4 * 450 * Millisecond; agg.DownTime != want {
		t.Errorf("agg down time = %v, want %v", agg.DownTime, want)
	}
	// The workload must be untouched by the fault plan: a healthy twin
	// spawns the identical flow sequence.
	healthy, err := Run(tiny(ProtoMMPTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i := range healthy.ShortFlows {
		if healthy.ShortFlows[i].Src != res.ShortFlows[i].Src ||
			healthy.ShortFlows[i].Dst != res.ShortFlows[i].Dst ||
			healthy.ShortFlows[i].Start != res.ShortFlows[i].Start {
			t.Fatalf("flow %d workload diverged between faulted and healthy run", i)
		}
	}
	if healthy.Blackholed != 0 || healthy.NoRouteDrops != 0 || healthy.FaultEvents != 0 {
		t.Errorf("healthy run shows failure artefacts: %d blackholed, %d no-route",
			healthy.Blackholed, healthy.NoRouteDrops)
	}
}

// TestFailureRobustnessShape is the acceptance scenario: with failed
// core links and a nonzero reconvergence delay, MMPTCP's packet scatter
// spreads the damage — its worst short flow suffers far less than
// single-path TCP's worst case, which stalls on the dead path for the
// whole blackhole window plus RTO backoff — and long-flow goodput
// recovers after repair and reconvergence instead of collapsing.
func TestFailureRobustnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("failure comparison is slow")
	}
	tcpRes, err := Run(faultedConfig(ProtoTCP, 200))
	if err != nil {
		t.Fatal(err)
	}
	mmRes, err := Run(faultedConfig(ProtoMMPTCP, 200))
	if err != nil {
		t.Fatal(err)
	}
	mmHealthy, err := Run(tiny(ProtoMMPTCP, 200))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TCP    faulted: %v miss=%.2f long=%.2f blackholed=%d noroute=%d",
		tcpRes.ShortSummary, tcpRes.DeadlineMissRate, tcpRes.LongThroughputMbps,
		tcpRes.Blackholed, tcpRes.NoRouteDrops)
	t.Logf("MMPTCP faulted: %v miss=%.2f long=%.2f blackholed=%d noroute=%d",
		mmRes.ShortSummary, mmRes.DeadlineMissRate, mmRes.LongThroughputMbps,
		mmRes.Blackholed, mmRes.NoRouteDrops)
	t.Logf("MMPTCP healthy: %v long=%.2f", mmHealthy.ShortSummary, mmHealthy.LongThroughputMbps)

	if tcpRes.Blackholed == 0 || mmRes.Blackholed == 0 {
		t.Fatal("failure scenario blackholed nothing; the scenario is broken")
	}
	// The robustness claim, directionally: scatter's worst short flow
	// beats single-path TCP's worst case under the same failure.
	if mmRes.ShortSummary.MaxMs >= tcpRes.ShortSummary.MaxMs {
		t.Errorf("MMPTCP worst short FCT %.1fms >= TCP worst %.1fms under failure",
			mmRes.ShortSummary.MaxMs, tcpRes.ShortSummary.MaxMs)
	}
	// Long flows ride through: after repair plus reconvergence, MMPTCP
	// goodput ends within striking distance of the healthy twin.
	if mmRes.LongThroughputMbps < 0.5*mmHealthy.LongThroughputMbps {
		t.Errorf("MMPTCP long goodput %.2f collapsed vs healthy %.2f",
			mmRes.LongThroughputMbps, mmHealthy.LongThroughputMbps)
	}
}
