package faults

import (
	"reflect"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// buildNet returns a small FatTree for injector tests.
func buildNet(eng *sim.Engine) *topology.Network {
	ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	return &ft.Network
}

// target adapts a built network to the injector's view.
func target(net *topology.Network) Target {
	return Target{Links: net.Links, Switches: net.Switches}
}

func TestFailCablesShape(t *testing.T) {
	evs := FailCables(netem.LayerAgg, 2, 10*sim.Millisecond, 50*sim.Millisecond)
	if len(evs) != 8 { // 2 cables x 2 directions x (down + up)
		t.Fatalf("events = %d, want 8", len(evs))
	}
	wantIdx := map[int]bool{0: true, 1: true, 2: true, 3: true}
	downs, ups := 0, 0
	for _, ev := range evs {
		if ev.Layer != netem.LayerAgg {
			t.Errorf("event layer %v", ev.Layer)
		}
		if !wantIdx[ev.Index] {
			t.Errorf("unexpected link index %d", ev.Index)
		}
		switch ev.Kind {
		case LinkDown:
			downs++
			if ev.At != 10*sim.Millisecond {
				t.Errorf("down at %v", ev.At)
			}
		case LinkUp:
			ups++
			if ev.At != 50*sim.Millisecond {
				t.Errorf("up at %v", ev.At)
			}
		}
	}
	if downs != 4 || ups != 4 {
		t.Errorf("downs=%d ups=%d, want 4/4", downs, ups)
	}
	// upAt == 0: no repairs.
	if evs := FailCables(netem.LayerAgg, 1, sim.Millisecond, 0); len(evs) != 2 {
		t.Errorf("unrepaired events = %d, want 2", len(evs))
	}
}

func TestDegradeCablesShape(t *testing.T) {
	evs := DegradeCables(netem.LayerEdge, 1, sim.Millisecond, 2*sim.Millisecond, 0.5, 0.01)
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	if evs[0].Kind != Degrade || evs[0].CapacityFactor != 0.5 || evs[0].LossRate != 0.01 {
		t.Errorf("bad degrade event %+v", evs[0])
	}
	if evs[2].Kind != Restore || evs[3].Kind != Restore {
		t.Error("missing restore events")
	}
}

func TestInstallValidation(t *testing.T) {
	bad := []Config{
		{Events: []Event{{At: -1, Kind: LinkDown, Layer: netem.LayerAgg, Index: 0}}},
		{Events: []Event{{Kind: LinkDown, Layer: netem.LayerCore, Index: 0}}},     // FatTree has no LayerCore links
		{Events: []Event{{Kind: LinkDown, Layer: netem.LayerAgg, Index: 999999}}}, // out of range
		{Events: []Event{{Kind: LinkDown, Layer: netem.LayerAgg, Index: -2}}},     // below -1
		{Events: []Event{{Kind: Kind(99), Layer: netem.LayerAgg, Index: 0}}},      // unknown kind
		{Events: []Event{{Kind: Degrade, Layer: netem.LayerAgg, Index: 0}}},       // degrades nothing
		{Events: []Event{{Kind: Degrade, Layer: netem.LayerAgg, CapacityFactor: 2}}},
		{Events: []Event{{Kind: Degrade, Layer: netem.LayerAgg, LossRate: 1.5}}},
		{Model: Model{Layers: []LayerModel{{Layer: netem.LayerAgg}}}}, // zero MTBF/MTTR
		{Model: Model{Layers: []LayerModel{{Layer: netem.LayerCore, MTBF: 1, MTTR: 1}}}},
	}
	for i, cfg := range bad {
		eng := sim.NewEngine()
		net := buildNet(eng)
		if _, err := Install(eng, target(net), cfg, sim.NewRNG(1), sim.Second); err == nil {
			t.Errorf("case %d: Install accepted invalid config", i)
		}
	}
}

func TestInjectorDownUpWithReconvergence(t *testing.T) {
	eng := sim.NewEngine()
	net := buildNet(eng)
	agg := net.LinksAtLayer(netem.LayerAgg)
	cfg := Config{
		Events:          FailCables(netem.LayerAgg, 1, 10*sim.Millisecond, 30*sim.Millisecond),
		ReconvergeDelay: 5 * sim.Millisecond,
	}
	inj, err := Install(eng, target(net), cfg, sim.NewRNG(1), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Events) != 4 {
		t.Fatalf("resolved events = %d", len(inj.Events))
	}
	type obs struct {
		down, routeDead bool
	}
	at := func(ts sim.Time, want obs) {
		eng.At(ts, func() {
			if agg[0].Down() != want.down || agg[0].RouteDead() != want.routeDead {
				t.Errorf("t=%v: down=%v routeDead=%v, want %+v",
					ts, agg[0].Down(), agg[0].RouteDead(), want)
			}
		})
	}
	at(9*sim.Millisecond, obs{false, false})  // healthy
	at(12*sim.Millisecond, obs{true, false})  // blackhole window
	at(16*sim.Millisecond, obs{true, true})   // reconverged around the corpse
	at(31*sim.Millisecond, obs{false, true})  // repaired, not yet re-admitted
	at(36*sim.Millisecond, obs{false, false}) // fully healed
	eng.Run()
	// Both directions of cable 0 toggled.
	if agg[1].TimeDown(eng.Now()) != 20*sim.Millisecond {
		t.Errorf("reverse direction down for %v, want 20ms", agg[1].TimeDown(eng.Now()))
	}
}

func TestInjectorOverlappingOutagesUnion(t *testing.T) {
	eng := sim.NewEngine()
	net := buildNet(eng)
	agg := net.LinksAtLayer(netem.LayerAgg)
	// Two overlapping outages on cable 0: [10ms, 40ms] and [20ms, 60ms].
	// The link must stay down for the union [10ms, 60ms] — the first
	// repair must not cut the second outage short.
	evs := append(
		FailCables(netem.LayerAgg, 1, 10*sim.Millisecond, 40*sim.Millisecond),
		FailCables(netem.LayerAgg, 1, 20*sim.Millisecond, 60*sim.Millisecond)...)
	if _, err := Install(eng, target(net), Config{Events: evs, ReconvergeDelay: 5 * sim.Millisecond},
		sim.NewRNG(1), sim.Second); err != nil {
		t.Fatal(err)
	}
	eng.At(45*sim.Millisecond, func() {
		if !agg[0].Down() {
			t.Error("first repair ended the overlapping second outage early")
		}
		if !agg[0].RouteDead() {
			t.Error("routing re-admitted a link still failed by the second outage")
		}
	})
	eng.At(70*sim.Millisecond, func() {
		if agg[0].Down() || agg[0].RouteDead() {
			t.Error("link still dead after the last repair plus reconvergence")
		}
	})
	eng.Run()
	if got, want := agg[0].TimeDown(eng.Now()), 50*sim.Millisecond; got != want {
		t.Errorf("union down time = %v, want %v", got, want)
	}
	// An unmatched repair on a healthy link is a no-op, not a panic or
	// a negative count.
	eng2 := sim.NewEngine()
	net2 := buildNet(eng2)
	up := []Event{{At: sim.Millisecond, Kind: LinkUp, Layer: netem.LayerAgg, Index: 0}}
	if _, err := Install(eng2, target(net2), Config{Events: up}, sim.NewRNG(1), sim.Second); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	if net2.LinksAtLayer(netem.LayerAgg)[0].Down() {
		t.Error("unmatched repair failed the link")
	}
}

func TestInjectorInstantReconvergence(t *testing.T) {
	eng := sim.NewEngine()
	net := buildNet(eng)
	agg := net.LinksAtLayer(netem.LayerAgg)
	cfg := Config{Events: FailCables(netem.LayerAgg, 1, 10*sim.Millisecond, 0)}
	if _, err := Install(eng, target(net), cfg, sim.NewRNG(1), sim.Second); err != nil {
		t.Fatal(err)
	}
	eng.At(10*sim.Millisecond+1, func() {
		if !agg[0].Down() || !agg[0].RouteDead() {
			t.Error("instant reconvergence did not exclude the link immediately")
		}
	})
	eng.Run()
}

func TestInjectorLayerWideEvent(t *testing.T) {
	eng := sim.NewEngine()
	net := buildNet(eng)
	cfg := Config{Events: []Event{{
		At: sim.Millisecond, Kind: Degrade, Layer: netem.LayerAgg,
		Index: -1, CapacityFactor: 0.25,
	}}}
	if _, err := Install(eng, target(net), cfg, sim.NewRNG(1), sim.Second); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i, l := range net.LinksAtLayer(netem.LayerAgg) {
		if l.Rate() != 25_000_000 {
			t.Fatalf("agg link %d rate %d after layer-wide degrade", i, l.Rate())
		}
	}
	// Other layers untouched.
	for _, l := range net.LinksAtLayer(netem.LayerEdge) {
		if l.Rate() != 100_000_000 {
			t.Fatal("edge link degraded by agg-layer event")
		}
	}
}

func TestInjectorDegradeAndRestore(t *testing.T) {
	eng := sim.NewEngine()
	net := buildNet(eng)
	agg := net.LinksAtLayer(netem.LayerAgg)
	evs := DegradeCables(netem.LayerAgg, 1, sim.Millisecond, 5*sim.Millisecond, 0.5, 0.25)
	if _, err := Install(eng, target(net), Config{Events: evs}, sim.NewRNG(1), sim.Second); err != nil {
		t.Fatal(err)
	}
	eng.At(2*sim.Millisecond, func() {
		if agg[0].Rate() != 50_000_000 {
			t.Errorf("degraded rate = %d", agg[0].Rate())
		}
	})
	eng.Run()
	if agg[0].Rate() != 100_000_000 {
		t.Error("restore did not reset the link")
	}
}

func TestModelSampleDeterministicAndBounded(t *testing.T) {
	m := Model{Layers: []LayerModel{
		{Layer: netem.LayerAgg, MTBF: 100 * sim.Millisecond, MTTR: 20 * sim.Millisecond},
	}}
	cables := func(netem.Layer) int { return 8 }
	a, err := m.Sample(sim.NewRNG(7), cables, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Sample(sim.NewRNG(7), cables, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed sampled different schedules")
	}
	if len(a) == 0 {
		t.Fatal("MTBF << horizon sampled no failures")
	}
	for _, ev := range a {
		if ev.At >= sim.Second {
			t.Errorf("event at %v beyond horizon", ev.At)
		}
		if ev.Index < 0 || ev.Index >= 16 {
			t.Errorf("event index %d out of cable-pair range", ev.Index)
		}
	}
	c, err := m.Sample(sim.NewRNG(8), cables, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds sampled identical schedules (suspicious)")
	}
	// Horizon field overrides the argument.
	m.Horizon = 10 * sim.Millisecond
	d, err := m.Sample(sim.NewRNG(7), cables, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range d {
		if ev.At >= 10*sim.Millisecond {
			t.Errorf("event at %v beyond Model.Horizon", ev.At)
		}
	}
}

func TestConfigActive(t *testing.T) {
	if (Config{}).Active() {
		t.Error("zero config active")
	}
	if !(Config{Events: []Event{{Kind: LinkDown}}}).Active() {
		t.Error("event config inactive")
	}
	if !(Config{Model: Model{Layers: []LayerModel{{}}}}).Active() {
		t.Error("model config inactive")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		LinkDown: "down", LinkUp: "up", Degrade: "degrade", Restore: "restore", Kind(9): "kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestFailSwitchesShape(t *testing.T) {
	evs := FailSwitches([]int{3, 7}, 10*sim.Millisecond, 50*sim.Millisecond)
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4 (2 switches x crash+restart)", len(evs))
	}
	downs, ups := 0, 0
	for _, ev := range evs {
		switch ev.Kind {
		case SwitchDown:
			downs++
			if ev.At != 10*sim.Millisecond {
				t.Errorf("crash at %v", ev.At)
			}
		case SwitchUp:
			ups++
			if ev.At != 50*sim.Millisecond {
				t.Errorf("restart at %v", ev.At)
			}
		}
		if ev.Index != 3 && ev.Index != 7 {
			t.Errorf("unexpected switch ordinal %d", ev.Index)
		}
	}
	if downs != 2 || ups != 2 {
		t.Errorf("downs=%d ups=%d, want 2/2", downs, ups)
	}
	// upAt == 0: permanent crashes.
	if evs := FailSwitches([]int{0}, sim.Millisecond, 0); len(evs) != 1 {
		t.Errorf("unrestarted events = %d, want 1", len(evs))
	}
}

func TestSwitchCrashKillsAllPortsAndAccounts(t *testing.T) {
	eng := sim.NewEngine()
	net := buildNet(eng)
	// Ordinal 16 is core 0 on the K=4 FatTree (8 edges, 8 aggs, 4 cores):
	// it terminates 8 unidirectional links (4 agg ports, both directions).
	cfg := Config{
		Events:          FailSwitches([]int{16}, 10*sim.Millisecond, 40*sim.Millisecond),
		ReconvergeDelay: 5 * sim.Millisecond,
	}
	if _, err := Install(eng, target(net), cfg, sim.NewRNG(1), sim.Second); err != nil {
		t.Fatal(err)
	}
	core := net.Switches[16]
	ports := 0
	eng.At(20*sim.Millisecond, func() {
		if !core.Down() {
			t.Error("switch not down mid-crash")
		}
		for _, l := range net.Links {
			if l.Src().ID() == core.ID() || l.Dst().ID() == core.ID() {
				ports++
				if !l.Down() {
					t.Errorf("incident link %v survived the crash", l)
				}
				if !l.RouteDead() {
					t.Errorf("incident link %v still routable after reconvergence", l)
				}
			} else if l.Down() {
				t.Errorf("non-incident link %v failed by the crash", l)
			}
		}
	})
	eng.Run()
	if ports != 8 {
		t.Errorf("crash covered %d incident links, want 8", ports)
	}
	if core.Down() {
		t.Error("switch still down after restart")
	}
	if core.Crashes != 1 || core.TimeDown(eng.Now()) != 30*sim.Millisecond {
		t.Errorf("crash accounting: crashes=%d downtime=%v, want 1 and 30ms",
			core.Crashes, core.TimeDown(eng.Now()))
	}
	for i, sw := range net.Switches {
		want := int64(0)
		if i == 16 {
			want = 1
		}
		if sw.Crashes != want {
			t.Errorf("switch %d crashed %d times, want %d", i, sw.Crashes, want)
		}
	}
	for _, l := range net.Links {
		if l.Down() || l.RouteDead() {
			t.Fatalf("link %v not healed after restart", l)
		}
	}
}

func TestSwitchCrashOverlapsWithLinkOutage(t *testing.T) {
	eng := sim.NewEngine()
	net := buildNet(eng)
	// Agg-layer cable 0 (links 0 and 1) is agg(0,0)<->core0; core 0 is
	// ordinal 16. The cable outage [10, 60]ms overlaps the switch crash
	// [20, 40]ms; the restart must not resurrect the still-cut cable.
	evs := append(FailCables(netem.LayerAgg, 1, 10*sim.Millisecond, 60*sim.Millisecond),
		FailSwitches([]int{16}, 20*sim.Millisecond, 40*sim.Millisecond)...)
	if _, err := Install(eng, target(net), Config{Events: evs}, sim.NewRNG(1), sim.Second); err != nil {
		t.Fatal(err)
	}
	cable := net.LinksAtLayer(netem.LayerAgg)[0]
	eng.At(50*sim.Millisecond, func() {
		if !cable.Down() {
			t.Error("switch restart resurrected a cable still cut by the link outage")
		}
	})
	eng.Run()
	if cable.Down() {
		t.Error("cable still down after both outages ended")
	}
}

func TestSwitchEventValidation(t *testing.T) {
	bad := []Config{
		{Events: []Event{{Kind: SwitchDown, Index: 999}}}, // out of range
		{Events: []Event{{Kind: SwitchUp, Index: -2}}},    // below -1
	}
	for i, cfg := range bad {
		eng := sim.NewEngine()
		net := buildNet(eng)
		if _, err := Install(eng, target(net), cfg, sim.NewRNG(1), sim.Second); err == nil {
			t.Errorf("case %d: Install accepted invalid switch event", i)
		}
	}
	// A network with no switches rejects switch events outright.
	eng := sim.NewEngine()
	net := buildNet(eng)
	cfg := Config{Events: []Event{{Kind: SwitchDown, Index: 0}}}
	if _, err := Install(eng, Target{Links: net.Links}, cfg, sim.NewRNG(1), sim.Second); err == nil {
		t.Error("switch event accepted against a switchless target")
	}
}
