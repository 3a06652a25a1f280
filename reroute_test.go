package mmptcp

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/sim"
)

// repairConfig is the local-vs-global comparison scenario: two agg-core
// cables die at 150ms — crippling agg(0,0) and the pod-0 downlinks of
// cores 0 and 1 — and stay dead until 2.5s, with a 25ms reconvergence
// delay. Local repair leaves upstream ECMP hashing onto the crippled
// cores for the whole outage; global repair steers around them once
// routing converges.
func repairConfig(proto Protocol, flows int, mode RoutingMode) Config {
	cfg := tiny(proto, flows)
	cfg.MaxSimTime = 20 * Second
	cfg.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 2500*Millisecond),
		ReconvergeDelay: 25 * Millisecond,
	}
	cfg.Routing.Mode = mode
	return cfg
}

// TestGlobalRepairShape is the acceptance shape: under the identical
// fault schedule and workload, global repair strictly reduces NoRoute
// drops versus the local baseline (it exists to stop upstream switches
// hashing onto next hops with no way forward), actually does recompute
// work, and does not hurt the long flows.
func TestGlobalRepairShape(t *testing.T) {
	if testing.Short() {
		t.Skip("repair comparison is slow")
	}
	local, err := Run(repairConfig(ProtoMMPTCP, 150, RoutingLocal))
	if err != nil {
		t.Fatal(err)
	}
	global, err := Run(repairConfig(ProtoMMPTCP, 150, RoutingGlobal))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("local : %v miss=%.2f long=%.2f noroute=%d blackholed=%d",
		local.ShortSummary, local.DeadlineMissRate, local.LongThroughputMbps,
		local.NoRouteDrops, local.Blackholed)
	t.Logf("global: %v miss=%.2f long=%.2f noroute=%d blackholed=%d recomputes=%d overrides=%d",
		global.ShortSummary, global.DeadlineMissRate, global.LongThroughputMbps,
		global.NoRouteDrops, global.Blackholed, global.Routing.Recomputes, global.Routing.Overrides)

	if local.NoRouteDrops == 0 {
		t.Fatal("local baseline saw no NoRoute drops; the scenario exercises nothing")
	}
	if global.NoRouteDrops >= local.NoRouteDrops {
		t.Errorf("global repair did not reduce NoRoute drops: %d >= %d",
			global.NoRouteDrops, local.NoRouteDrops)
	}
	if global.Routing.Recomputes == 0 {
		t.Error("global mode did no recomputes despite fault events")
	}
	if global.Routing.Mode != string(RoutingGlobal) || local.Routing.Mode != string(RoutingLocal) {
		t.Errorf("modes recorded as %q/%q", global.Routing.Mode, local.Routing.Mode)
	}
	if local.Routing.Recomputes != 0 {
		t.Errorf("local mode recorded %d recomputes", local.Routing.Recomputes)
	}
	// Both transitions healed: after the repair converges no overrides
	// remain.
	if global.Routing.Overrides != 0 {
		t.Errorf("%d overrides left after the network healed", global.Routing.Overrides)
	}
	// Goodput under failure: rerouting must not be worse than dropping.
	if global.LongThroughputMbps < local.LongThroughputMbps*0.95 {
		t.Errorf("global long goodput %.2f fell below local %.2f",
			global.LongThroughputMbps, local.LongThroughputMbps)
	}
}

// TestSwitchCrashRun drives a whole-switch crash/restart pair through
// the public API and checks the crash accounting survives into Results.
func TestSwitchCrashRun(t *testing.T) {
	cfg := tiny(ProtoMMPTCP, 80)
	cfg.MaxSimTime = 20 * Second
	cfg.Faults = FaultsConfig{
		Events:          FailSwitches([]int{16}, 150*Millisecond, 700*Millisecond),
		ReconvergeDelay: 10 * Millisecond,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents != 2 {
		t.Errorf("fault events = %d, want 2 (crash + restart)", res.FaultEvents)
	}
	if res.SwitchCrashes != 1 {
		t.Errorf("switch crashes = %d, want 1", res.SwitchCrashes)
	}
	if res.Blackholed == 0 {
		t.Error("crashing a core switch blackholed nothing")
	}
	agg := res.Layers[netem.LayerAgg]
	if agg.DownLinks == 0 || agg.DownTime == 0 {
		t.Errorf("agg layer shows no downed links after a core crash: %+v", agg)
	}
}

// TestLivePathCountUnderFailure checks the failure-aware oracle MMPTCP's
// duplicate-ACK threshold derives from: once routing has converged
// around a dead agg-core cable, cross-pod path counts shrink from the
// static FatTree formula to the live DAG count, and recover after
// repair.
func TestLivePathCountUnderFailure(t *testing.T) {
	eng := NewEngine()
	cfg := tiny(ProtoMMPTCP, 1)
	net, err := NewNetwork(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = faults.Install(eng, faults.Target{
		Links: net.Links, Switches: net.Switches,
	}, faults.Config{
		Events: faults.FailCables(netem.LayerAgg, 1, 10*sim.Millisecond, 50*sim.Millisecond),
	}, NewRNG(1), sim.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Hosts 0 and 8: different pods on the K=4, 8-hosts-per-edge tree.
	src, dst := 0, net.Hosts[len(net.Hosts)-1].ID()
	healthy := PathCount(net, src, int(dst))
	if healthy != 4 {
		t.Fatalf("healthy cross-pod path count = %d, want 4 (K=4)", healthy)
	}
	var during, after int
	eng.At(20*sim.Millisecond, func() { during = PathCount(net, src, int(dst)) })
	eng.At(60*sim.Millisecond, func() { after = PathCount(net, src, int(dst)) })
	eng.Run()
	if during != 3 {
		t.Errorf("degraded path count = %d, want 3 (one agg-core edge dead)", during)
	}
	if after != healthy {
		t.Errorf("path count %d after repair, want %d", after, healthy)
	}
}

// TestRoutingModeValidation rejects unknown modes up front.
func TestRoutingModeValidation(t *testing.T) {
	cfg := tiny(ProtoTCP, 1)
	cfg.Routing.Mode = "quantum"
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown routing mode")
	}
}
