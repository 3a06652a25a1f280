package routing

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// buildFatTree returns a K=4 FatTree (16 hosts, 8 edge + 8 agg + 4 core
// switches) with a control plane installed.
func buildFatTree(eng *sim.Engine) (*topology.Network, *ControlPlane) {
	ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	cp, err := Install(eng, &ft.Network, Config{})
	if err != nil {
		panic(err)
	}
	return &ft.Network, cp
}

// install wires a fault plan to the control plane the way run.go does.
func install(t *testing.T, eng *sim.Engine, net *topology.Network, cp *ControlPlane, cfg faults.Config) *faults.Injector {
	t.Helper()
	inj, err := faults.Install(eng, faults.Target{
		Links: net.Links, Switches: net.Switches,
	}, cfg, sim.NewRNG(1), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	inj.OnRouteChange = cp.Invalidate
	return inj
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": Local, "local": Local, "global": Global} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("quantum"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

// TestHealthyRecomputeInstallsNoOverrides locks in the fast-path
// guarantee: on an undamaged network the BFS pass agrees with every
// row as built exactly, so a recompute leaves zero overrides and
// forwarding identical to the build.
func TestHealthyRecomputeInstallsNoOverrides(t *testing.T) {
	eng := sim.NewEngine()
	net, cp := buildFatTree(eng)
	cp.Recompute()
	st := cp.Stats()
	if st.Recomputes != 1 || st.Overrides != 0 {
		t.Fatalf("healthy recompute: %+v, want 1 recompute and 0 overrides", st)
	}
	// Spot-check forwarding: every switch still yields non-empty sets
	// for every host.
	for _, sw := range net.Switches {
		for _, h := range net.Hosts {
			if len(sw.Router().NextLinks(h.ID())) == 0 {
				t.Fatalf("switch %d has no route to host %d after healthy recompute", sw.ID(), h.ID())
			}
		}
	}
}

// TestGlobalReconvergenceStopsUpstreamHashing is the subsystem's reason
// to exist: after agg(0,0)-core0 dies, core 0 cannot reach pod 0, and
// with only local repair the aggregation switches of other pods keep
// hashing pod-0 traffic onto core 0 (NoRoute at the core). The control
// plane must remove core 0 from their equal-cost sets for pod-0
// destinations — and nothing else.
func TestGlobalReconvergenceStopsUpstreamHashing(t *testing.T) {
	eng := sim.NewEngine()
	net, cp := buildFatTree(eng)
	// Switch ordinals: 0-7 edges, 8-15 aggs (pod p local a = 8+2p+a),
	// 16-19 cores. Cable 0 at the agg layer is agg(0,0)<->core0.
	agg10 := net.Switches[8+2*1+0] // pod 1, local index 0: uplinks to cores 0 and 1
	core0 := net.Switches[16]
	dstPod0 := net.Hosts[0].ID()
	dstPod1 := net.Hosts[4].ID()

	if n := len(agg10.Router().NextLinks(dstPod0)); n != 2 {
		t.Fatalf("healthy agg(1,0) has %d uplinks toward pod 0, want 2", n)
	}
	install(t, eng, net, cp, faults.Config{
		Events: faults.FailCables(netem.LayerAgg, 1, 10*sim.Millisecond, 0),
	})
	eng.RunUntil(20 * sim.Millisecond)

	eq := agg10.Router().NextLinks(dstPod0)
	if len(eq) != 1 {
		t.Fatalf("agg(1,0) equal-cost set toward pod 0 = %d links, want 1 (core 0 excluded)", len(eq))
	}
	if eq[0].Dst().ID() == core0.ID() {
		t.Fatal("agg(1,0) still routes pod-0 traffic via core 0, which lost its pod-0 downlink")
	}
	// Traffic toward pods core 0 can still reach is untouched: pod-1
	// destinations keep both uplinks at agg(2,0).
	agg20 := net.Switches[8+2*2+0]
	if n := len(agg20.Router().NextLinks(dstPod1)); n != 2 {
		t.Fatalf("agg(2,0) toward pod 1 = %d links, want 2 (core 0 is still fine there)", n)
	}
	st := cp.Stats()
	if st.Recomputes != 1 {
		t.Errorf("recomputes = %d, want 1 (both directions of the cable die at one instant)", st.Recomputes)
	}
	if st.Overrides == 0 {
		t.Error("no overrides installed despite changed reachability")
	}
	if st.LastConvergence != 10*sim.Millisecond {
		t.Errorf("last convergence at %v, want 10ms (instant reconvergence)", st.LastConvergence)
	}
	// The live path count shrank for pod-0 destinations: only 3 of the
	// 4 agg->core->agg paths survive from pod 1.
	if got := net.PathCount(dstPod1, dstPod0); got != 3 {
		t.Errorf("live path count pod1->pod0 = %d, want 3", got)
	}
}

// TestRecomputeCoalescing crashes a core switch — which deadens every
// port at one instant — and expects exactly one recompute for the crash
// and one for the restart, not one per port.
func TestRecomputeCoalescing(t *testing.T) {
	eng := sim.NewEngine()
	net, cp := buildFatTree(eng)
	built := builtStorage(net)
	install(t, eng, net, cp, faults.Config{
		Events:          faults.FailSwitches([]int{16}, 10*sim.Millisecond, 50*sim.Millisecond),
		ReconvergeDelay: 5 * sim.Millisecond,
	})
	eng.Run()
	st := cp.Stats()
	if st.Recomputes != 2 {
		t.Errorf("recomputes = %d, want 2 (crash + restart, coalesced over 8 ports)", st.Recomputes)
	}
	if st.Overrides != 0 {
		t.Errorf("overrides = %d after full restart, want 0", st.Overrides)
	}
	if !cpCleared(net, built) {
		t.Error("rows still serve override entries after the network healed")
	}
}

// builtStorage records, per (switch, host), the first element of the set
// a healthy row answers with: the as-built set's own storage. Call it
// before any link flips.
func builtStorage(net *topology.Network) [][]**netem.Link {
	out := make([][]**netem.Link, len(net.Switches))
	for i, sw := range net.Switches {
		out[i] = make([]**netem.Link, len(net.Hosts))
		for j, h := range net.Hosts {
			if eq := sw.Router().NextLinks(h.ID()); len(eq) > 0 {
				out[i][j] = &eq[0]
			}
		}
	}
	return out
}

// cpCleared reports whether every row is back as built: nothing staged,
// and every lookup answered from the as-built set builtStorage recorded
// (an override entry answers from a copy). Only meaningful while no link
// is route-dead, when as-built sets are served unfiltered.
func cpCleared(net *topology.Network, built [][]**netem.Link) bool {
	for i, sw := range net.Switches {
		r := sw.Router()
		if r.Stale() {
			return false
		}
		for j, h := range net.Hosts {
			eq := r.NextLinks(h.ID())
			if (len(eq) == 0) != (built[i][j] == nil) || len(eq) > 0 && &eq[0] != built[i][j] {
				return false
			}
		}
	}
	return true
}

// TestGlobalLivenessAfterFaults verifies the liveness contract on every
// topology family: after a fault that does not physically partition the
// tested pair, a recomputed control plane still offers a positive live
// path count (and forwarding sets all the way to the destination).
func TestGlobalLivenessAfterFaults(t *testing.T) {
	cases := []struct {
		name     string
		build    func(eng *sim.Engine) *topology.Network
		cfg      faults.Config
		src, dst int
	}{
		{
			name: "fattree/single-link",
			build: func(eng *sim.Engine) *topology.Network {
				ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
				return &ft.Network
			},
			cfg: faults.Config{Events: faults.FailCables(netem.LayerAgg, 1, sim.Millisecond, 0)},
			src: 4, dst: 0,
		},
		{
			name: "fattree/switch-crash",
			build: func(eng *sim.Engine) *topology.Network {
				ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
				return &ft.Network
			},
			// Crash one core and one aggregation switch.
			cfg: faults.Config{Events: faults.FailSwitches([]int{16, 8}, sim.Millisecond, 0)},
			src: 4, dst: 0,
		},
		{
			name: "fattree/correlated-group",
			build: func(eng *sim.Engine) *topology.Network {
				ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
				return &ft.Network
			},
			// Both uplink cables of agg(0,0) die together (a line card).
			cfg: faults.Config{Events: faults.FailCables(netem.LayerAgg, 2, sim.Millisecond, 0)},
			src: 4, dst: 0,
		},
		{
			name: "multihomed/single-link",
			build: func(eng *sim.Engine) *topology.Network {
				m := topology.NewMultiHomed(eng, topology.MultiHomedConfig{K: 4, HostsPerEdge: 2, Link: topology.DefaultLinkConfig()})
				return &m.Network
			},
			cfg: faults.Config{Events: faults.FailCables(netem.LayerEdge, 1, sim.Millisecond, 0)},
			src: 2, dst: 0,
		},
		{
			name: "multihomed/switch-crash",
			build: func(eng *sim.Engine) *topology.Network {
				m := topology.NewMultiHomed(eng, topology.MultiHomedConfig{K: 4, HostsPerEdge: 2, Link: topology.DefaultLinkConfig()})
				return &m.Network
			},
			// Crash host 0's primary edge switch (edges 0-7, aggs 8-15,
			// cores 16-19) and one core: host 0 stays reachable through
			// its second access cable.
			cfg: faults.Config{Events: faults.FailSwitches([]int{0, 16}, sim.Millisecond, 0)},
			src: 2, dst: 0,
		},
		{
			name: "dumbbell/host-link",
			build: func(eng *sim.Engine) *topology.Network {
				d := topology.NewDumbbell(eng, topology.DumbbellConfig{HostsPerSide: 3, Link: topology.DefaultLinkConfig()})
				return &d.Network
			},
			// Host 1's access cable (host-layer links 2 and 3) dies;
			// host 0 <-> host 3 is untouched.
			cfg: faults.Config{Events: []faults.Event{
				{At: sim.Millisecond, Kind: faults.LinkDown, Layer: netem.LayerHost, Index: 2},
				{At: sim.Millisecond, Kind: faults.LinkDown, Layer: netem.LayerHost, Index: 3},
			}, ReconvergeDelay: sim.Millisecond},
			src: 0, dst: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			net := tc.build(eng)
			cp, err := Install(eng, net, Config{})
			if err != nil {
				t.Fatal(err)
			}
			install(t, eng, net, cp, tc.cfg)
			eng.RunUntil(100 * sim.Millisecond)
			if cp.Stats().Recomputes == 0 {
				t.Fatal("fault plan triggered no recompute")
			}
			src, dst := net.Hosts[tc.src].ID(), net.Hosts[tc.dst].ID()
			if physicallyConnected(net, src, dst) && net.PathCount(src, dst) <= 0 {
				t.Fatalf("pair %d->%d physically connected but live path count is 0", tc.src, tc.dst)
			}
			// The stronger contract, checked pairwise across the whole
			// network against an independent BFS: the control plane finds
			// a route exactly when the live graph has one.
			for _, hs := range net.Hosts {
				for _, hd := range net.Hosts {
					if hs == hd {
						continue
					}
					want := physicallyConnected(net, hs.ID(), hd.ID())
					got := net.PathCount(hs.ID(), hd.ID()) > 0
					if got != want {
						t.Fatalf("pair %d->%d: live path count says reachable=%t, independent BFS says %t",
							hs.ID(), hd.ID(), got, want)
					}
				}
			}
		})
	}
}

// physicallyConnected is an independent forward BFS over route-live
// links (never tunnelling through other hosts), used as ground truth for
// the control plane's reachability.
func physicallyConnected(net *topology.Network, src, dst netem.NodeID) bool {
	out := make(map[netem.NodeID][]*netem.Link)
	for _, l := range net.Links {
		if !l.RouteDead() {
			out[l.Src().ID()] = append(out[l.Src().ID()], l)
		}
	}
	isHost := make(map[netem.NodeID]bool)
	for _, h := range net.Hosts {
		isHost[h.ID()] = true
	}
	seen := map[netem.NodeID]bool{src: true}
	frontier := []netem.NodeID{src}
	for len(frontier) > 0 {
		var next []netem.NodeID
		for _, v := range frontier {
			for _, l := range out[v] {
				u := l.Dst().ID()
				if u == dst {
					return true
				}
				if seen[u] || isHost[u] {
					continue
				}
				seen[u] = true
				next = append(next, u)
			}
		}
		frontier = next
	}
	return false
}

// TestDumbbellHostLinkOverride pins down the sharper global-repair
// property on the dumbbell: once host 1's access cable is dead, the left
// switch's equal-cost set for host 1 must become empty at the *right*
// switch too (it learns the destination is gone), so cross-bottleneck
// traffic to a dead host dies at the first switch instead of crossing
// the shared bottleneck first.
func TestDumbbellHostLinkOverride(t *testing.T) {
	eng := sim.NewEngine()
	d := topology.NewDumbbell(eng, topology.DumbbellConfig{HostsPerSide: 3, Link: topology.DefaultLinkConfig()})
	net := &d.Network
	cp, err := Install(eng, net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Host-layer cable 1 (links 2 and 3) is host 1's access pair.
	install(t, eng, net, cp, faults.Config{Events: []faults.Event{
		{At: sim.Millisecond, Kind: faults.LinkDown, Layer: netem.LayerHost, Index: 2},
		{At: sim.Millisecond, Kind: faults.LinkDown, Layer: netem.LayerHost, Index: 3},
	}})
	eng.RunUntil(10 * sim.Millisecond)
	right := net.Switches[1]
	if n := len(right.Router().NextLinks(net.Hosts[0].ID())); n == 0 {
		t.Fatal("right switch lost its route to a healthy host")
	}
	if eq := right.Router().NextLinks(net.Hosts[1].ID()); len(eq) != 0 {
		t.Fatalf("right switch still forwards toward dead host 1 (%d links)", len(eq))
	}
}

// TestIncrementalSkipsUntouchedDestinations pins down the incremental
// win on the cheapest possible fault: a host access cable only affects
// its own destination, so the second such failure must recompute exactly
// one destination and skip every other, reusing every cached BFS.
func TestIncrementalSkipsUntouchedDestinations(t *testing.T) {
	eng := sim.NewEngine()
	net, cp := buildFatTree(eng)
	hosts := len(net.Hosts) // 16 on the K=4 tree
	install(t, eng, net, cp, faults.Config{Events: []faults.Event{
		// Host 0's access cable (host-layer links 0 and 1) at 10ms...
		{At: 10 * sim.Millisecond, Kind: faults.LinkDown, Layer: netem.LayerHost, Index: 0},
		{At: 10 * sim.Millisecond, Kind: faults.LinkDown, Layer: netem.LayerHost, Index: 1},
		// ...then host 1's (links 2 and 3) at 20ms.
		{At: 20 * sim.Millisecond, Kind: faults.LinkDown, Layer: netem.LayerHost, Index: 2},
		{At: 20 * sim.Millisecond, Kind: faults.LinkDown, Layer: netem.LayerHost, Index: 3},
	}})
	eng.RunUntil(30 * sim.Millisecond)
	st := cp.Stats()
	if st.Recomputes != 2 {
		t.Fatalf("recomputes = %d, want 2", st.Recomputes)
	}
	// First recompute is cold (every destination reconciled); the second
	// touches only host 1 — host flips invalidate nothing switch-side,
	// and host 1's new empty-attachment signature is already cached from
	// host 0's failure.
	if want := hosts + 1; st.DstRecomputed != want {
		t.Errorf("DstRecomputed = %d, want %d (cold pass + host 1 only)", st.DstRecomputed, want)
	}
	if want := hosts - 1; st.DstSkipped != want {
		t.Errorf("DstSkipped = %d, want %d", st.DstSkipped, want)
	}
	// 8 edge signatures + the empty signature on the cold pass; zero new
	// BFS work on the second.
	if st.BFSRuns != 9 {
		t.Errorf("BFSRuns = %d, want 9", st.BFSRuns)
	}
	// And the tables are still right: nobody forwards toward dead host 0.
	for _, sw := range net.Switches {
		if eq := sw.Router().NextLinks(net.Hosts[0].ID()); len(eq) != 0 {
			t.Fatalf("switch %d still forwards toward dead host 0", sw.ID())
		}
	}
}

// snapshotTables captures every (switch, destination) equal-cost set the
// control plane currently answers with.
func snapshotTables(net *topology.Network) [][][]*netem.Link {
	out := make([][][]*netem.Link, len(net.Switches))
	for i, sw := range net.Switches {
		out[i] = make([][]*netem.Link, len(net.Hosts))
		for j, h := range net.Hosts {
			eq := sw.Router().NextLinks(h.ID())
			out[i][j] = append([]*netem.Link(nil), eq...)
		}
	}
	return out
}

// TestStaggeredFlipsSpreadByDistance drives the per-switch convergence
// model at unit level. Killing the agg(0,0)<->core0 cable with a 1ms
// per-hop delay must flip the seeds (agg(0,0), core 0) at recompute
// time, but the aggregation switches of the other pods — one hop from
// core 0 — keep serving their stale 2-uplink sets toward pod 0 for
// another millisecond, with the transient window open exactly that
// long.
func TestStaggeredFlipsSpreadByDistance(t *testing.T) {
	eng := sim.NewEngine()
	ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	net := &ft.Network
	o := newOracle(net)
	cp, err := Install(eng, net, Config{Convergence: Staggered, PerHopDelay: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	install(t, eng, net, cp, faults.Config{
		Events: faults.FailCables(netem.LayerAgg, 1, 10*sim.Millisecond, 0),
	})
	agg10 := net.Switches[8+2*1+0] // pod 1, local index 0: uplinks to cores 0 and 1
	core0 := net.Switches[16]
	dstPod0 := net.Hosts[0].ID()

	type probe struct {
		aggSet, coreSet     int
		aggStale, coreStale bool
		coreEpoch           uint64
		transient           bool
	}
	sample := func() probe {
		return probe{
			aggSet:    len(agg10.Router().NextLinks(dstPod0)),
			coreSet:   len(core0.Router().NextLinks(dstPod0)),
			aggStale:  agg10.Router().Stale(),
			coreStale: core0.Router().Stale(),
			coreEpoch: cp.epochs[int(core0.ID())-len(net.Hosts)],
			transient: cp.staleRows > 0,
		}
	}
	var during, after probe
	eng.At(10*sim.Millisecond+sim.Microsecond, func() { during = sample() })
	eng.At(11*sim.Millisecond+sim.Microsecond, func() { after = sample() })
	eng.RunUntil(20 * sim.Millisecond)

	// Mid-window: core 0 (a seed, distance 0) flipped inline at
	// recompute time — its pod-0 set is already the recomputed 3-link
	// detour down into the other pods and back up via the surviving
	// cores, its epoch advanced, and it is not stale. agg(1,0) — one
	// hop out — still serves both uplinks from its old epoch and knows
	// it is stale.
	if during.coreEpoch != 1 || during.coreStale {
		t.Errorf("core 0 mid-window: epoch=%d stale=%t, want flipped at distance 0", during.coreEpoch, during.coreStale)
	}
	if during.coreSet != 3 {
		t.Errorf("core 0 set toward pod 0 mid-window = %d links, want the 3-link detour", during.coreSet)
	}
	if during.aggSet != 2 || !during.aggStale || !during.transient {
		t.Errorf("agg(1,0) mid-window = %+v, want stale 2-link set inside an open window", during)
	}
	// Window closed: agg(1,0) converged onto core 1 only.
	if after.aggSet != 1 || after.aggStale || after.transient {
		t.Errorf("agg(1,0) after window = %+v, want fresh 1-link set, window closed", after)
	}
	st := cp.Stats()
	if st.FirstFlip != 10*sim.Millisecond || st.LastFlip != 11*sim.Millisecond {
		t.Errorf("flip spread [%v, %v], want [10ms, 11ms]", st.FirstFlip, st.LastFlip)
	}
	if st.TransientTime != sim.Millisecond {
		t.Errorf("transient window = %v, want 1ms", st.TransientTime)
	}
	if st.Flips == 0 {
		t.Error("no per-switch flips recorded")
	}
	if epoch := cp.epochs[int(agg10.ID())-len(net.Hosts)]; epoch != 1 {
		t.Errorf("agg(1,0) epoch = %d, want 1 (one applied flip)", epoch)
	}
	// The staggered tables must land exactly where a rebuild from scratch
	// of the cut fabric lands.
	want, overrides := o.tables()
	for _, sw := range net.Switches {
		for _, h := range net.Hosts {
			if got := sw.Router().NextLinks(h.ID()); !slices.Equal(got, want[sw.ID()][h.ID()]) {
				t.Errorf("after the window switch %d toward host %d answers %v, oracle says %v",
					sw.ID(), h.ID(), got, want[sw.ID()][h.ID()])
			}
		}
	}
	if st.Overrides != overrides {
		t.Errorf("Stats.Overrides = %d after the window, oracle counts %d", st.Overrides, overrides)
	}
}

// TestStaggeredZeroDelayFlipsInline pins the degenerate case the
// public equivalence suite relies on: with PerHopDelay zero, staggered
// convergence applies every flip inline at recompute time — no window,
// no scheduled events, tables bit-identical to atomic.
func TestStaggeredZeroDelayFlipsInline(t *testing.T) {
	engA, engS := sim.NewEngine(), sim.NewEngine()
	ftA := topology.NewFatTree(engA, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	ftS := topology.NewFatTree(engS, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	cpA, err := Install(engA, &ftA.Network, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cpS, err := Install(engS, &ftS.Network, Config{Convergence: Staggered})
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{Events: faults.FailCables(netem.LayerAgg, 2, 10*sim.Millisecond, 30*sim.Millisecond)}
	install(t, engA, &ftA.Network, cpA, cfg)
	install(t, engS, &ftS.Network, cpS, cfg)
	for _, at := range []sim.Time{20 * sim.Millisecond, 40 * sim.Millisecond} {
		engA.RunUntil(at)
		engS.RunUntil(at)
		// Same link pointers cannot be compared across two networks;
		// compare set sizes switch by switch, destination by destination.
		a, s := snapshotTables(&ftA.Network), snapshotTables(&ftS.Network)
		for i := range a {
			for j := range a[i] {
				if len(a[i][j]) != len(s[i][j]) {
					t.Fatalf("at %v: switch %d dst %d: atomic %d links, staggered-0 %d",
						at, i, j, len(a[i][j]), len(s[i][j]))
				}
			}
		}
	}
	if st := cpS.Stats(); st.TransientTime != 0 {
		t.Errorf("zero-delay staggered opened a %v transient window", st.TransientTime)
	}
}

// TestRestagedFlipKeepsItsOwnSchedule pins the flip-event supersession
// rule: when a switch with a flip already in flight is re-staged by a
// later batch, the new target must land at the new batch's flip time —
// the superseded event fires off-schedule and must not install the
// fresher table early.
func TestRestagedFlipKeepsItsOwnSchedule(t *testing.T) {
	eng := sim.NewEngine()
	ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	net := &ft.Network
	cp, err := Install(eng, net, Config{Convergence: Staggered, PerHopDelay: 5 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Kill both directions of the cable between the given switches.
	kill := func(a, b *netem.Switch) {
		for _, l := range net.Links {
			if (l.Src() == a && l.Dst() == b) || (l.Src() == b && l.Dst() == a) {
				l.SetRouteDead(true)
				cp.Invalidate(l)
			}
		}
	}
	agg00, agg10, agg20 := net.Switches[8], net.Switches[10], net.Switches[12]
	core0, core1 := net.Switches[16], net.Switches[17]
	// Batch 1 (10ms): agg(0,0)-core0 dies; agg(1,0) sits one hop out, so
	// its flip is scheduled for 15ms. Batch 2 (12ms): agg(1,0)-core1
	// dies; agg(1,0) is now a seed and flips inline, leaving the 15ms
	// event in flight with no target. Batch 3 (13ms): agg(2,0)-core0
	// dies; agg(1,0) is re-staged with an intended flip at 18ms. The
	// stale 15ms event must not install that table three milliseconds
	// early.
	eng.At(10*sim.Millisecond, func() { kill(agg00, core0) })
	eng.At(12*sim.Millisecond, func() { kill(agg10, core1) })
	eng.At(13*sim.Millisecond, func() { kill(agg20, core0) })

	agg10Ord := int(agg10.ID()) - len(net.Hosts)
	epochs := make(map[sim.Time]uint64)
	stale := make(map[sim.Time]bool)
	for _, at := range []sim.Time{14 * sim.Millisecond, 16 * sim.Millisecond, 19 * sim.Millisecond} {
		at := at
		eng.At(at, func() { epochs[at] = cp.epochs[agg10Ord]; stale[at] = agg10.Router().Stale() })
	}
	eng.RunUntil(30 * sim.Millisecond)

	if epochs[14*sim.Millisecond] != 1 {
		t.Fatalf("epoch at 14ms = %d, want 1 (batch-2 inline flip)", epochs[14*sim.Millisecond])
	}
	if !stale[14*sim.Millisecond] {
		t.Fatal("agg(1,0) not stale at 14ms despite the batch-3 restage")
	}
	if epochs[16*sim.Millisecond] != 1 {
		t.Errorf("epoch at 16ms = %d, want 1 — the superseded 15ms event installed the batch-3 table early", epochs[16*sim.Millisecond])
	}
	if epochs[19*sim.Millisecond] != 2 || stale[19*sim.Millisecond] {
		t.Errorf("epoch at 19ms = %d (stale=%t), want 2 and fresh (flip landed at its own 18ms schedule)",
			epochs[19*sim.Millisecond], stale[19*sim.Millisecond])
	}
}

// TestInstallValidation rejects malformed convergence configs.
func TestInstallValidation(t *testing.T) {
	eng := sim.NewEngine()
	ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	bad := []Config{
		{PerHopDelay: -sim.Millisecond},
		{Convergence: "quantum"},
	}
	for _, cfg := range bad {
		if _, err := Install(eng, &ft.Network, cfg); err == nil {
			t.Errorf("Install accepted %+v", cfg)
		}
	}
	// The dense tables rely on the builders' NodeID layout — hosts
	// 0..H-1, then the switches in order, and no link leaving them — so
	// Install must refuse anything else instead of indexing out of range.
	ids := func(v ...netem.NodeID) []netem.NodeID { return v }
	build := func(hostIDs, switchIDs []netem.NodeID, strayEnd netem.Node) *topology.Network {
		n := &topology.Network{Eng: eng}
		for _, id := range hostIDs {
			n.Hosts = append(n.Hosts, netem.NewHost(eng, id))
		}
		for _, id := range switchIDs {
			n.Switches = append(n.Switches, netem.NewSwitch(eng, id, 1))
		}
		if strayEnd != nil {
			n.Links = append(n.Links, netem.NewLink(eng, strayEnd, n.Switches[0], 1e8, sim.Microsecond, 10, netem.LayerEdge))
		}
		return n
	}
	for name, n := range map[string]*topology.Network{
		"host IDs not 0..H-1":           build(ids(0, 2), ids(3), nil),
		"switch IDs not H..H+S-1":       build(ids(0, 1), ids(3), nil),
		"switches numbered first":       build(ids(1), ids(0), nil),
		"a link from an unlisted node":  build(ids(0), ids(1), netem.NewSwitch(eng, 7, 1)),
		"a link from a negative NodeID": build(ids(0), ids(1), netem.NewHost(eng, -1)),
	} {
		if _, err := Install(eng, n, Config{}); err == nil {
			t.Errorf("Install accepted a network with %s", name)
		}
	}
	if _, err := ParseConvergence("staggered"); err != nil {
		t.Errorf("ParseConvergence rejected staggered: %v", err)
	}
	if got, err := ParseConvergence(""); err != nil || got != Atomic {
		t.Errorf("ParseConvergence(\"\") = %v, %v; want atomic", got, err)
	}
}

// TestRoutingLookupAllocationFree asserts the healthy fast path: with a
// control plane installed and no overrides live, a forwarding lookup
// through the switch's row allocates nothing.
func TestRoutingLookupAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	net, cp := buildFatTree(eng)
	cp.Recompute() // healthy: installs zero overrides
	r := net.Switches[0].Router()
	dst := net.Hosts[len(net.Hosts)-1].ID()
	var sink []*netem.Link
	allocs := testing.AllocsPerRun(200, func() {
		sink = r.NextLinks(dst)
	})
	if allocs != 0 {
		t.Errorf("healthy routing lookup allocates %.1f per call, want 0", allocs)
	}
	_ = sink
}

// paperFabric returns the paper's K=8, 512-host FatTree with a control
// plane installed, and both directions of its first agg-core cable.
func paperFabric(t *testing.T) (*topology.Network, *ControlPlane, [2]*netem.Link) {
	t.Helper()
	eng := sim.NewEngine()
	ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 8, HostsPerEdge: 16, Link: topology.DefaultLinkConfig()})
	cp, err := Install(eng, &ft.Network, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cable := ft.LinksAtLayer(netem.LayerAgg)
	return &ft.Network, cp, [2]*netem.Link{cable[0], cable[1]}
}

// flipCable sets both directions of a cable route-dead (or live) and
// recomputes.
func flipCable(cp *ControlPlane, cable [2]*netem.Link, dead bool) {
	for _, l := range cable {
		l.SetRouteDead(dead)
		cp.Invalidate(l)
	}
	cp.Recompute()
}

// TestRecomputeAllocationBound pins the steady-state cost of the dense
// layout: once the first fail->repair cycle of an agg-core cable has
// sized the free lists, a whole further cycle — two fabric-wide
// recomputes on the paper's K=8 fabric — allocates fewer than 2,000
// objects (the map-based layout allocated 101,988 per recompute): only
// the sets that actually changed are copied.
func TestRecomputeAllocationBound(t *testing.T) {
	net, cp, cable := paperFabric(t)
	built := builtStorage(net)
	cycle := func() {
		flipCable(cp, cable, true)
		flipCable(cp, cable, false)
	}
	cycle()
	if allocs := testing.AllocsPerRun(2, cycle); allocs >= 2000 {
		t.Errorf("a warm fail->repair cycle allocates %.0f objects over its two recomputes, want < 2000", allocs)
	}
	if st := cp.Stats(); st.Overrides != 0 || !cpCleared(net, built) {
		t.Errorf("overrides = %d after the repair, want 0 and every row as built", st.Overrides)
	}
}

// TestOverriddenLookupAllocationFree is the data-plane half: with
// override entries live, a lookup that hits one and a lookup that is
// answered by the live-filtered as-built set both allocate nothing.
func TestOverriddenLookupAllocationFree(t *testing.T) {
	net, cp, cable := paperFabric(t)
	flipCable(cp, cable, true)
	if cp.Stats().Overrides == 0 {
		t.Fatal("the dead cable installed no overrides; scenario exercises nothing")
	}
	// An aggregation switch of another pod carries overrides for pod 0's
	// hosts (the core behind the dead cable is gone from their sets, a
	// narrower answer than its full uplink set) and none for the last
	// pod's.
	last := netem.NodeID(len(net.Hosts) - 1)
	var r *netem.Row
	for _, sw := range net.Switches {
		c := sw.Router()
		if c.Overrides() > 0 && len(c.NextLinks(0)) > 0 && len(c.NextLinks(0)) < len(c.NextLinks(last)) {
			r = c
			break
		}
	}
	if r == nil {
		t.Fatal("no row overrides host 0 with a narrower set than the last host's")
	}
	var sink []*netem.Link
	allocs := testing.AllocsPerRun(200, func() {
		sink = r.NextLinks(0)
		sink = r.NextLinks(last)
	})
	if allocs != 0 {
		t.Errorf("lookups with overrides live allocate %.1f per pair, want 0", allocs)
	}
	_ = sink
}

// TestLookupOutsideTableFallsThrough pins the bounds rule of the dense
// rows: a destination a row has no entry for — a switch's NodeID, a
// negative one, one past every node — is answered as it was before any
// override existed, and never indexes out of range.
func TestLookupOutsideTableFallsThrough(t *testing.T) {
	eng := sim.NewEngine()
	v := topology.NewMultiHomed(eng, topology.MultiHomedConfig{K: 4, HostsPerEdge: 2, Link: topology.DefaultLinkConfig()})
	dsts := []netem.NodeID{netem.NodeID(len(v.Hosts)), v.Switches[3].ID(), -1, 1 << 30}
	before := make([][][]*netem.Link, len(v.Switches))
	for i, sw := range v.Switches {
		for _, dst := range dsts {
			before[i] = append(before[i], slices.Clone(sw.Router().NextLinks(dst)))
		}
	}
	cp, err := Install(eng, &v.Network, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill agg 0's first core cable: the core behind it loses its way
	// down into pod 0 and detours through another pod.
	up := v.LinksAtLayer(netem.LayerAgg)
	flipCable(cp, [2]*netem.Link{up[0], up[1]}, true)
	overridden := 0
	for i, sw := range v.Switches {
		r := sw.Router()
		if r.Overrides() == 0 {
			continue
		}
		overridden++
		for k, dst := range dsts {
			if got, want := r.NextLinks(dst), before[i][k]; !slices.Equal(got, want) {
				t.Errorf("switch %d: NextLinks(%d) = %v, before any override %v", sw.ID(), dst, got, want)
			}
		}
	}
	if overridden == 0 {
		t.Fatal("no row holds overrides; scenario exercises nothing")
	}
}

// TestInstallAllocationBound pins the cost of installing the plane on the
// paper's K=8 fabric. The rows are the network's own, so Install copies
// no table: it allocated 42,961 objects when every (switch, host) pair
// owned a copy of its structural set, and a few hundred kilobytes of
// bookkeeping is all it may take now.
func TestInstallAllocationBound(t *testing.T) {
	net, _, _ := paperFabric(t)
	allocs := testing.AllocsPerRun(2, func() {
		net.Reset(1) // allocates nothing
		if _, err := Install(net.Eng, net, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 4296 {
		t.Errorf("Install allocates %.0f objects, want < 4296", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Install(net.Eng, net, Config{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 300_000 {
		t.Errorf("Install allocates %d bytes, want < %d", bytes, 300_000)
	}
}
