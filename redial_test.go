package mmptcp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/sim"
)

// deadPathFCT runs one cross-pod MPTCP flow (63 -> 0 on the small K=4
// tree) under a single agg-core cable cut that leaves core 0 with no way
// into pod 0 — the persistent-blackhole case local repair cannot heal,
// because the re-hash decision sits at the sender-side agg switches that
// never learn about the failure. Any subflow whose ports hash through
// core 0 is dead from 30ms until the 5s repair. Returns the flow's
// completion time and its re-dial accounting.
func deadPathFCT(t *testing.T, transport TransportConfig) (sim.Time, int, int) {
	t.Helper()
	eng := NewEngine()
	cfg := tiny(ProtoMPTCP, 1)
	cfg.Transport = transport
	net, err := NewNetwork(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = faults.Install(eng, faults.Target{
		Links: net.Links, Switches: net.Switches,
	}, faults.Config{
		Events:          faults.FailCables(netem.LayerAgg, 1, 30*sim.Millisecond, 5*sim.Second),
		ReconvergeDelay: 25 * sim.Millisecond,
	}, NewRNG(1), 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := Dial(net, cfg, DialConfig{
		FlowID: 1,
		Src:    len(net.Hosts) - 1,
		Dst:    0,
		Size:   4 << 20,
		RNG:    NewRNGStream(1, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("flow never completed")
	}
	fct := conn.Receiver().CompletedAt
	redials, recovered := conn.RedialStats()
	conn.Close()
	return fct, redials, recovered
}

// TestRedialRecoversFromDeadPath is the tentpole's acceptance shape:
// with re-dialing off, a subflow pinned through the unreachable core
// waits out the whole outage in RTO backoff and the flow completes only
// after the 5s repair; with re-dialing on, the persistent-RTO escape
// tears the subflow down after two back-to-back timeouts, the
// replacement's fresh source port re-hashes onto a live core, and the
// flow finishes an order of magnitude earlier.
func TestRedialRecoversFromDeadPath(t *testing.T) {
	off, offRedials, _ := deadPathFCT(t, TransportConfig{})
	if offRedials != 0 {
		t.Fatalf("recovery off reported %d redials", offRedials)
	}
	if off < 5*sim.Second {
		t.Fatalf("baseline FCT %v finished before the 5s repair; no subflow was pinned through the dead core and the scenario exercises nothing", off)
	}

	on, redials, recovered := deadPathFCT(t, TransportConfig{DeadRTOs: 2, RedialBudget: 8})
	t.Logf("FCT off=%v on=%v redials=%d recovered=%d", off, on, redials, recovered)
	if redials == 0 || recovered == 0 {
		t.Fatalf("recovery on: redials=%d recovered=%d, want both > 0", redials, recovered)
	}
	if on >= off/2 {
		t.Errorf("re-dialing FCT %v not well under the RTO-backoff baseline %v", on, off)
	}
	if on >= 2500*sim.Millisecond {
		t.Errorf("re-dialing FCT %v; want completion long before the 5s repair", on)
	}
}

// alwaysOpen is a convergence observer that never quiesces — the
// worst-case churn signal for the phase-switch deferral bound.
type alwaysOpen struct{}

func (alwaysOpen) ConvergenceOpen() bool { return true }

// TestDeferPhaseSwitchBounded drives one MMPTCP flow against an
// observer reporting permanently-open convergence and checks
// core.MaxDefer is a hard bound: the switch still happens, exactly
// MaxDefer after the first deferred attempt, after a non-trivial number
// of re-checks.
func TestDeferPhaseSwitchBounded(t *testing.T) {
	run := func(observer core.ConvergenceObserver, transport TransportConfig) (sim.Time, int) {
		eng := NewEngine()
		cfg := tiny(ProtoMMPTCP, 1)
		cfg.Transport = transport
		if transport.DeferPhaseSwitch {
			cfg.Routing.Mode = RoutingGlobal
		}
		net, err := NewNetwork(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var obs = DialConfig{
			FlowID:   1,
			Src:      0,
			Dst:      len(net.Hosts) - 1,
			Size:     1 << 20,
			RNG:      NewRNGStream(1, 7),
			observer: observer,
		}
		conn, err := Dial(net, cfg, obs)
		if err != nil {
			t.Fatal(err)
		}
		conn.Start()
		eng.Run()
		mc, ok := MMPTCPConn(conn)
		if !ok {
			t.Fatal("not an MMPTCP connection")
		}
		if !mc.Switched() {
			t.Fatal("flow never entered phase two")
		}
		at, deferrals := mc.SwitchedAt(), mc.Deferrals()
		conn.Close()
		return at, deferrals
	}

	base, baseDefers := run(nil, TransportConfig{})
	if baseDefers != 0 {
		t.Fatalf("undeferred run recorded %d deferrals", baseDefers)
	}
	at, deferrals := run(alwaysOpen{}, TransportConfig{DeferPhaseSwitch: true})
	t.Logf("switch at %v undeferred, %v under open convergence (%d deferrals)", base, at, deferrals)
	if deferrals < 2 {
		t.Errorf("deferrals = %d, want repeated re-checks before the forced switch", deferrals)
	}
	if at != base+core.MaxDefer {
		t.Errorf("deferred switch at %v, want exactly MaxDefer past the undeferred switch at %v", at, base+core.MaxDefer)
	}
}
