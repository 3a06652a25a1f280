package mmptcp

import (
	"reflect"
	"testing"
)

// vl2tiny is tiny() on the VL2 Clos instead of the FatTree: DA=DI=4,
// 8 ToRs, 64 hosts — the same scale, a different routing structure.
func vl2tiny(proto Protocol, flows int) Config {
	cfg := tiny(proto, flows)
	cfg.Topology = TopoVL2
	return cfg
}

// convergenceFaultSuite is the staggered-vs-atomic equivalence matrix:
// the fault classes (cable cuts with repair, whole-switch crash/restart,
// sampled per-cable agg failures) on both the FatTree and the VL2 Clos,
// all under global routing.
func convergenceFaultSuite() []Config {
	configs := incrementalFaultSuite()

	cables := vl2tiny(ProtoMMPTCP, 40)
	cables.MaxSimTime = 15 * Second
	cables.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
		ReconvergeDelay: 20 * Millisecond,
	}
	cables.Routing.Mode = RoutingGlobal
	configs = append(configs, cables)

	// Intermediate switch 12 (ToRs 0-7, aggs 8-11, intermediates 12-15).
	crash := vl2tiny(ProtoTCP, 40)
	crash.MaxSimTime = 15 * Second
	crash.Faults = FaultsConfig{
		Events:          FailSwitches([]int{12}, 200*Millisecond, 800*Millisecond),
		ReconvergeDelay: 10 * Millisecond,
	}
	crash.Routing.Mode = RoutingGlobal
	configs = append(configs, crash)

	model := vl2tiny(ProtoMMPTCP, 40)
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

// TestStaggeredAtomicEquivalence is the staged-convergence safety
// argument: with PerHopDelay zero every flip lands inline at recompute
// time, so staggered mode must produce Results byte-identical to atomic
// across the whole fault suite. Only the fields that record which
// distribution mechanism ran (the convergence label and the flip
// schedule counters) are normalised; the window-damage counters are
// deliberately left in the comparison — a zero-delay run must never
// open a window, so they must be zero on both sides.
func TestStaggeredAtomicEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fault suite is slow")
	}
	run := func(staggered bool) []*Results {
		var out []*Results
		for _, cfg := range convergenceFaultSuite() {
			if staggered {
				cfg.Routing.Convergence = ConvergeStaggered
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Normalise what names the mechanism rather than measures
			// the network.
			res.Config.Routing.Convergence = ""
			res.Routing.Convergence = ""
			res.Routing.Flips = 0
			res.Routing.FirstFlip = 0
			res.Routing.LastFlip = 0
			out = append(out, res)
		}
		return out
	}
	atomic := run(false)
	staggered := run(true)
	for i := range atomic {
		if !reflect.DeepEqual(atomic[i], staggered[i]) {
			t.Errorf("config %d: staggered PerHopDelay=0 diverged from atomic", i)
		}
		if staggered[i].Routing.TransientTime != 0 || staggered[i].LoopDrops != 0 ||
			staggered[i].Routing.TransientNoRoute != 0 || staggered[i].Routing.StaleLookups != 0 {
			t.Errorf("config %d: zero-delay staggered opened a transient window: %+v",
				i, staggered[i].Routing)
		}
	}
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

// TestStaggeredSweepDeterminism extends the sweep-determinism guarantee
// to staggered convergence and flap damping: per-switch flip schedules
// and hold-down deferrals must be byte-identical serial vs parallel.
// CI runs this test under -race.
func TestStaggeredSweepDeterminism(t *testing.T) {
	mkConfigs := func() []Config {
		var configs []Config
		for _, perHop := range []SimTime{0, 2 * Millisecond} {
			cfg := transientConfig(ProtoMMPTCP, 40, 2, perHop)
			cfg.MaxSimTime = 15 * Second
			configs = append(configs, cfg)
		}
		vl2 := vl2tiny(ProtoTCP, 40)
		vl2.MaxSimTime = 15 * Second
		vl2.Faults = FaultsConfig{
			Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
			ReconvergeDelay: 10 * Millisecond,
		}
		vl2.Routing = RoutingConfig{
			Mode:        RoutingGlobal,
			Convergence: ConvergeStaggered,
			PerHopDelay: 3 * Millisecond,
		}
		configs = append(configs, vl2)
		damped := transientConfig(ProtoTCP, 40, 2, 2*Millisecond)
		damped.MaxSimTime = 15 * Second
		damped.Faults = FaultsConfig{
			Model: FaultModel{
				Layers:  []FaultLayerModel{{Layer: LayerAgg, MTBF: 500 * Millisecond, MTTR: 50 * Millisecond}},
				Horizon: 5 * Second,
			},
			ReconvergeDelay: 5 * Millisecond,
		}
		damped.Routing.HoldDown = 200 * Millisecond
		configs = append(configs, damped)
		return configs
	}
	serial, err := RunSweep(mkConfigs(), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(mkConfigs(), SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("config %d: staggered sweep diverged between 1 and 4 workers", i)
		}
	}
	for i, res := range serial {
		if res.Routing.Flips == 0 {
			t.Errorf("config %d applied no per-switch flips", i)
		}
	}
}

// TestFlapDampingRun drives the hold-down policy through the public
// API: an aggressively flapping access layer with damping enabled must
// report deferred transitions and still finish the workload.
func TestFlapDampingRun(t *testing.T) {
	cfg := tiny(ProtoTCP, 60)
	cfg.MaxSimTime = 20 * Second
	cfg.Faults = FaultsConfig{
		Model: FaultModel{
			Layers:  []FaultLayerModel{{Layer: LayerHost, MTBF: 200 * Millisecond, MTTR: 20 * Millisecond}},
			Horizon: 5 * Second,
		},
	}
	cfg.Routing = RoutingConfig{
		Mode:          RoutingGlobal,
		HoldDown:      300 * Millisecond,
		FlapThreshold: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	undamped := cfg
	undamped.Routing.HoldDown = 0
	undamped.Routing.FlapThreshold = 0
	ref, err := Run(undamped)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("damped: recomputes=%d damped=%d; undamped: recomputes=%d",
		res.Routing.Recomputes, res.Routing.Damped, ref.Routing.Recomputes)
	if res.Routing.Damped == 0 {
		t.Error("hold-down never deferred a transition under access-layer churn")
	}
	if res.Routing.Recomputes >= ref.Routing.Recomputes {
		t.Errorf("damping did not reduce recomputes: %d >= %d",
			res.Routing.Recomputes, ref.Routing.Recomputes)
	}
	if ref.Routing.Damped != 0 {
		t.Errorf("undamped run reports %d damped transitions", ref.Routing.Damped)
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

	hold := base()
	hold.Routing = RoutingConfig{Mode: RoutingGlobal, HoldDown: -Second}
	if _, err := Run(hold); err == nil {
		t.Error("Run accepted a negative HoldDown")
	}

	thr := base()
	thr.Routing = RoutingConfig{Mode: RoutingGlobal, FlapThreshold: 3}
	if _, err := Run(thr); err == nil {
		t.Error("Run accepted FlapThreshold without HoldDown (silently does nothing)")
	}

	localDamp := base()
	localDamp.Routing = RoutingConfig{Mode: RoutingLocal, HoldDown: 100 * Millisecond}
	if _, err := Run(localDamp); err == nil {
		t.Error("Run accepted HoldDown under local repair (no control plane to damp)")
	}

	conv := base()
	conv.Routing = RoutingConfig{Mode: RoutingGlobal, Convergence: "quantum"}
	if _, err := Run(conv); err == nil {
		t.Error("Run accepted an unknown convergence mode")
	}

	// The rules cmd/mmptcpsim leaves to Config: flap threshold, fault
	// times, and the transport-recovery knobs that react to convergence.
	for name, mutate := range map[string]func(*Config){
		"negative FlapThreshold": func(c *Config) {
			c.Routing = RoutingConfig{Mode: RoutingGlobal, HoldDown: Second, FlapThreshold: -1}
		},
		"negative fault time":               func(c *Config) { c.Faults.Events = FailCables(LayerAgg, 1, -Millisecond, 0) },
		"negative DeadRTOs":                 func(c *Config) { c.Transport.DeadRTOs = -1 },
		"negative RedialBackoff":            func(c *Config) { c.Transport = TransportConfig{DeadRTOs: 2, RedialBackoff: -Millisecond} },
		"negative RedialBudget":             func(c *Config) { c.Transport = TransportConfig{DeadRTOs: 2, RedialBudget: -1} },
		"RedialBackoff without DeadRTOs":    func(c *Config) { c.Transport.RedialBackoff = Millisecond },
		"RedialBudget without DeadRTOs":     func(c *Config) { c.Transport.RedialBudget = 2 },
		"negative MaxDefer":                 func(c *Config) { c.Transport.MaxDefer = -Millisecond },
		"MaxDefer without DeferPhaseSwitch": func(c *Config) { c.Transport.MaxDefer = Millisecond },
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
