package mmptcp

import "testing"

// mhtiny is tiny() on the multi-homed FatTree: K=4, 64 dual-homed hosts,
// the same scale with rows filled by breadth-first search.
func mhtiny(proto Protocol, flows int) Config {
	cfg := tiny(proto, flows)
	cfg.Topology = TopoMultiHomed
	return cfg
}

// transientConfig is the staggered-convergence scenario: cables agg-core
// cables die at 150ms and come back at 900ms, routing notices 20ms
// later, and every switch's FIB flip then propagates outward at
// perHop per hop from the failed cables.
func transientConfig(proto Protocol, flows, cables int, perHop SimTime) Config {
	cfg := tiny(proto, flows)
	cfg.MaxSimTime = 20 * Second
	cfg.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, cables, 150*Millisecond, 900*Millisecond),
		ReconvergeDelay: 20 * Millisecond,
	}
	cfg.Routing = RoutingConfig{
		Mode:        RoutingGlobal,
		Convergence: ConvergeStaggered,
		PerHopDelay: perHop,
	}
	return cfg
}

// TestStaggeredTransientShape is the acceptance shape for the new
// subsystem, in two halves.
//
// Blackhole half: severing every pod-0 uplink (4 agg-core cables on the
// K=4 tree) makes the recomputed pod-0 sets empty, so while the flips
// propagate outward, switches that already flipped drop pod-0 traffic
// that stale switches still send them — TransientNoRoute, the
// blackholes bred by the disagreement itself.
//
// Loop half: with only 2 cables cut the recomputed tables are down-up
// detours, and a long flip spread (50ms per hop) lets packets ping-pong
// between a stale switch still pointing at a crippled core and the
// flipped core pointing back down — hop-backstop deaths accounted as
// LoopDrops, not hop-limit noise.
func TestStaggeredTransientShape(t *testing.T) {
	if testing.Short() {
		t.Skip("transient runs are slow")
	}
	sever, err := Run(transientConfig(ProtoMMPTCP, 150, 4, 20*Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rt := sever.Routing
	t.Logf("sever: recomputes=%d flips=%d spread=[%v,%v] window=%v stale=%d transient-noroute=%d loops=%d",
		rt.Recomputes, rt.Flips, rt.FirstFlip, rt.LastFlip, rt.TransientTime,
		rt.StaleLookups, rt.TransientNoRoute, sever.LoopDrops)
	if rt.Convergence != string(ConvergeStaggered) {
		t.Errorf("convergence recorded as %q", rt.Convergence)
	}
	if rt.Flips == 0 {
		t.Error("no per-switch flips applied")
	}
	if rt.TransientTime == 0 {
		t.Error("per-hop delay 20ms opened no transient window")
	}
	if rt.FirstFlip >= rt.LastFlip {
		t.Errorf("flip spread [%v, %v] is not a real spread", rt.FirstFlip, rt.LastFlip)
	}
	if rt.StaleLookups == 0 {
		t.Error("no lookup was ever served by a stale FIB during the window")
	}
	if rt.TransientNoRoute == 0 {
		t.Error("no blackhole was attributed to the transient window")
	}
	// Window damage is a subset of the totals.
	if rt.TransientNoRoute > sever.NoRouteDrops {
		t.Errorf("transient no-route %d exceeds total %d", rt.TransientNoRoute, sever.NoRouteDrops)
	}

	loops, err := Run(transientConfig(ProtoMMPTCP, 150, 2, 50*Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	lt := loops.Routing
	t.Logf("loops: flips=%d window=%v stale=%d loops=%d hop-noise=%d",
		lt.Flips, lt.TransientTime, lt.StaleLookups, loops.LoopDrops, loops.HopDrops)
	if loops.LoopDrops == 0 {
		t.Error("no forwarding micro-loop was caught by the hop backstop during the window")
	}

	// And the atomic twin of the same scenario reports no window at all.
	atomic := transientConfig(ProtoMMPTCP, 150, 4, 0)
	atomic.Routing.Convergence = ConvergeAtomic
	ares, err := Run(atomic)
	if err != nil {
		t.Fatal(err)
	}
	art := ares.Routing
	if art.TransientTime != 0 || art.Flips != 0 || ares.LoopDrops != 0 ||
		art.TransientNoRoute != 0 || art.StaleLookups != 0 {
		t.Errorf("atomic twin reports transient artefacts: %+v", art)
	}
}

// TestConvergenceValidation rejects malformed convergence configs at
// the public surface with clear errors instead of scheduling at weird
// times.
func TestConvergenceValidation(t *testing.T) {
	base := func() Config { return tiny(ProtoTCP, 1) }

	neg := base()
	neg.Faults.ReconvergeDelay = -Millisecond
	if _, err := Run(neg); err == nil {
		t.Error("Run accepted a negative ReconvergeDelay")
	}

	perhop := base()
	perhop.Routing = RoutingConfig{Mode: RoutingGlobal, Convergence: ConvergeStaggered, PerHopDelay: -Millisecond}
	if _, err := Run(perhop); err == nil {
		t.Error("Run accepted a negative PerHopDelay")
	}

	local := base()
	local.Routing = RoutingConfig{Mode: RoutingLocal, Convergence: ConvergeStaggered}
	if _, err := Run(local); err == nil {
		t.Error("Run accepted staggered convergence under local repair")
	}

	atomicPerHop := base()
	atomicPerHop.Routing = RoutingConfig{Mode: RoutingGlobal, PerHopDelay: Millisecond}
	if _, err := Run(atomicPerHop); err == nil {
		t.Error("Run accepted PerHopDelay under atomic convergence")
	}

	conv := base()
	conv.Routing = RoutingConfig{Mode: RoutingGlobal, Convergence: "quantum"}
	if _, err := Run(conv); err == nil {
		t.Error("Run accepted an unknown convergence mode")
	}

	// The rules cmd/mmptcpsim leaves to Config: fault times and the
	// transport-recovery knobs that react to convergence.
	for name, mutate := range map[string]func(*Config){
		"negative fault time":           func(c *Config) { c.Faults.Events = FailCables(LayerAgg, 1, -Millisecond, 0) },
		"negative DeadRTOs":             func(c *Config) { c.Transport.DeadRTOs = -1 },
		"negative RedialBudget":         func(c *Config) { c.Transport = TransportConfig{DeadRTOs: 2, RedialBudget: -1} },
		"RedialBudget without DeadRTOs": func(c *Config) { c.Transport.RedialBudget = 2 },
		"DeferPhaseSwitch under local repair": func(c *Config) {
			c.Transport.DeferPhaseSwitch = true
		},
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted %s", name)
		}
	}
}
