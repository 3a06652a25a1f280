package netem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// staticRouter returns the same equal-cost set for every destination.
type staticRouter struct{ links []*Link }

func (r *staticRouter) NextLinks(dst NodeID) []*Link { return r.links }

func TestSwitchECMPDeterministicPerFlow(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	sinks := make([]*sink, 4)
	links := make([]*Link, 4)
	for i := range links {
		sinks[i] = newSink(eng, NodeID(i))
		links[i] = NewLink(eng, sw, sinks[i], 1_000_000_000, 0, 1000, LayerAgg)
	}
	sw.SetRouter(&staticRouter{links})

	// Same 5-tuple, many packets: all must take the same link.
	for i := 0; i < 100; i++ {
		sw.Receive(dataPacket(1500), nil)
	}
	eng.Run()
	nonEmpty := 0
	for _, s := range sinks {
		if len(s.packets) > 0 {
			nonEmpty++
			if len(s.packets) != 100 {
				t.Errorf("link got %d packets, want all 100 on one link", len(s.packets))
			}
		}
	}
	if nonEmpty != 1 {
		t.Errorf("flow split across %d links; ECMP must be deterministic per flow", nonEmpty)
	}
}

func TestSwitchECMPSpreadsRandomPorts(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	sinks := make([]*sink, 4)
	links := make([]*Link, 4)
	for i := range links {
		sinks[i] = newSink(eng, NodeID(i))
		links[i] = NewLink(eng, sw, sinks[i], 10_000_000_000, 0, 100000, LayerAgg)
	}
	sw.SetRouter(&staticRouter{links})

	rng := sim.NewRNG(1)
	const n = 8000
	for i := 0; i < n; i++ {
		p := dataPacket(1500)
		p.SrcPort = uint16(rng.Intn(1 << 16)) // packet scatter
		sw.Receive(p, nil)
	}
	eng.Run()
	for i, s := range sinks {
		got := len(s.packets)
		if got < n/4-n/16 || got > n/4+n/16 {
			t.Errorf("link %d got %d packets, want about %d (uniform spread)", i, got, n/4)
		}
	}
}

func TestSwitchSingleLinkFastPath(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	dst := newSink(eng, 1)
	l := NewLink(eng, sw, dst, 1_000_000_000, 0, 10, LayerEdge)
	sw.SetRouter(&staticRouter{[]*Link{l}})
	sw.Receive(dataPacket(1500), nil)
	eng.Run()
	if len(dst.packets) != 1 {
		t.Fatalf("delivered %d, want 1", len(dst.packets))
	}
	if sw.Forwarded != 1 {
		t.Errorf("forwarded = %d, want 1", sw.Forwarded)
	}
}

func TestSwitchHopBackstop(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	dst := newSink(eng, 1)
	l := NewLink(eng, sw, dst, 1_000_000_000, 0, 10, LayerEdge)
	sw.SetRouter(&staticRouter{[]*Link{l}})
	p := dataPacket(1500)
	p.Hops = maxHops + 1
	sw.Receive(p, nil)
	eng.Run()
	if len(dst.packets) != 0 {
		t.Fatalf("loop backstop failed: packet forwarded with %d hops", p.Hops)
	}
	if sw.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", sw.Dropped)
	}
}

// versionedRouter is a test VersionedRouter with controllable window
// state, standing in for the control plane's FIBs.
type versionedRouter struct {
	staticRouter
	staging   bool
	epoch     uint64
	stale     bool
	transient bool
}

func (r *versionedRouter) Staging() bool   { return r.staging }
func (r *versionedRouter) Epoch() uint64   { return r.epoch }
func (r *versionedRouter) Stale() bool     { return r.stale }
func (r *versionedRouter) Transient() bool { return r.transient }

// TestSwitchTransientDropClassification pins the loop-drop accounting:
// hop-backstop drops inside an open convergence window are LoopDrops,
// outside they stay hop-limit noise in Dropped; no-route drops inside
// the window additionally count as TransientNoRoute; and lookups served
// while the switch's own table is stale are counted.
func TestSwitchTransientDropClassification(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	dst := newSink(eng, 1)
	l := NewLink(eng, sw, dst, 1_000_000_000, 0, 10, LayerEdge)
	vr := &versionedRouter{staticRouter: staticRouter{[]*Link{l}}, staging: true}
	sw.SetRouter(vr)

	overHops := func() *Packet {
		p := dataPacket(1500)
		p.Hops = maxHops + 1
		return p
	}
	// Outside the window: hop-limit noise.
	sw.Receive(overHops(), nil)
	if sw.Dropped != 1 || sw.LoopDrops != 0 {
		t.Fatalf("outside window: dropped=%d loops=%d, want 1/0", sw.Dropped, sw.LoopDrops)
	}
	// Window open: the same drop is a micro-loop casualty.
	vr.transient = true
	sw.Receive(overHops(), nil)
	if sw.Dropped != 1 || sw.LoopDrops != 1 {
		t.Fatalf("inside window: dropped=%d loops=%d, want 1/1", sw.Dropped, sw.LoopDrops)
	}
	// Empty set inside the window: NoRoute and TransientNoRoute.
	vr.links = nil
	sw.Receive(dataPacket(1500), nil)
	if sw.NoRoute != 1 || sw.TransientNoRoute != 1 {
		t.Fatalf("window blackhole: noroute=%d transient=%d, want 1/1", sw.NoRoute, sw.TransientNoRoute)
	}
	vr.transient = false
	sw.Receive(dataPacket(1500), nil)
	if sw.NoRoute != 2 || sw.TransientNoRoute != 1 {
		t.Fatalf("steady blackhole: noroute=%d transient=%d, want 2/1", sw.NoRoute, sw.TransientNoRoute)
	}
	// Stale-table lookups are counted whether or not they forward.
	vr.links = []*Link{l}
	vr.stale = true
	sw.Receive(dataPacket(1500), nil)
	if sw.StaleLookups != 1 {
		t.Fatalf("stale lookups = %d, want 1", sw.StaleLookups)
	}
	vr.stale = false
	sw.Receive(dataPacket(1500), nil)
	if sw.StaleLookups != 1 {
		t.Fatalf("fresh lookup counted as stale: %d", sw.StaleLookups)
	}
	eng.Run()

	// A versioned router with staging disabled (atomic convergence) is
	// never consulted: its windows cannot open, so the switch keeps the
	// plain nil-check fast path and classifies drops as steady-state.
	sw2 := NewSwitch(eng, 101, 7)
	sw2.SetRouter(&versionedRouter{staticRouter: staticRouter{[]*Link{l}}, transient: true, stale: true})
	p := dataPacket(1500)
	p.Hops = maxHops + 1
	sw2.Receive(p, nil)
	if sw2.LoopDrops != 0 || sw2.Dropped != 1 || sw2.StaleLookups != 0 {
		t.Errorf("non-staging router consulted: loops=%d dropped=%d stale=%d",
			sw2.LoopDrops, sw2.Dropped, sw2.StaleLookups)
	}
	eng.Run()
}

func TestFlowHashProperties(t *testing.T) {
	// Property: the hash depends only on the 5-tuple and seed.
	f := func(src, dst int32, sport, dport uint16, seed uint32) bool {
		p1 := &Packet{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sport, DstPort: dport, Seq: 1, Size: 100}
		p2 := &Packet{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sport, DstPort: dport, Seq: 999, Size: 1500, Retx: true}
		return p1.FlowHash(seed) == p2.FlowHash(seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Different seeds give (almost always) different hashes: check on a
	// fixed tuple that at least most of 100 seeds differ from seed 0.
	p := &Packet{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4}
	base := p.FlowHash(0)
	same := 0
	for s := uint32(1); s <= 100; s++ {
		if p.FlowHash(s) == base {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 seeds collide with seed 0", same)
	}
}

func TestFlowHashSensitivity(t *testing.T) {
	base := &Packet{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4}
	variants := []*Packet{
		{Src: 2, Dst: 2, SrcPort: 3, DstPort: 4},
		{Src: 1, Dst: 3, SrcPort: 3, DstPort: 4},
		{Src: 1, Dst: 2, SrcPort: 5, DstPort: 4},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 6},
	}
	h := base.FlowHash(42)
	for i, v := range variants {
		if v.FlowHash(42) == h {
			t.Errorf("variant %d hash collides with base (weak hash)", i)
		}
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Flags: FlagData, FlowID: 7, Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Seq: 100, PayloadLen: 1400}
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
	ack := &Packet{Flags: FlagAck, AckSeq: 1400}
	if s := ack.String(); s == "" {
		t.Error("empty String() for ACK")
	}
	syn := &Packet{Flags: FlagSYN}
	fin := &Packet{Flags: FlagFIN}
	if syn.String() == fin.String() {
		t.Error("SYN and FIN render identically")
	}
}

func TestLiveLinksFiltering(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	links := make([]*Link, 4)
	var routes RouteState
	for i := range links {
		links[i] = NewLink(eng, sw, newSink(eng, NodeID(i)), 1_000_000_000, 0, 10, LayerAgg)
		links[i].Routes = &routes
	}
	live := LiveLinks{Routes: &routes}
	// All alive: the exact input slice comes back (no allocation).
	if got := live.Filter(links); &got[0] != &links[0] || len(got) != 4 {
		t.Error("all-alive fast path must return the input slice")
	}
	links[1].SetRouteDead(true)
	links[3].SetRouteDead(true)
	links[3].SetRouteDead(true) // repeating a state is not a transition
	if routes.Dead() != 2 {
		t.Errorf("route-dead tally = %d, want 2", routes.Dead())
	}
	got := live.Filter(links)
	if len(got) != 2 || got[0] != links[0] || got[1] != links[2] {
		t.Errorf("filtered set = %v, want links 0 and 2", got)
	}
	// A set with a dead member is answered from the filter's own buffer,
	// again and again, and so is a different set after it.
	other := []*Link{links[3], links[2]}
	if n := testing.AllocsPerRun(100, func() {
		if len(live.Filter(links)) != 2 || len(live.Filter(other)) != 1 {
			t.Fatal("wrong live set")
		}
	}); n != 0 {
		t.Errorf("filtering a degraded set allocates %v objects, want 0", n)
	}
	// Everything dead: empty, not nil-panicking.
	links[0].SetRouteDead(true)
	links[2].SetRouteDead(true)
	if got := live.Filter(links); len(got) != 0 {
		t.Errorf("all-dead set has %d links", len(got))
	}
	links[1].SetRouteDead(false)
	if got := live.Filter(links); len(got) != 1 || got[0] != links[1] {
		t.Error("revived link missing from live set")
	}
	// Reset revives for routing too, and the tally follows.
	for _, l := range links {
		l.Reset()
	}
	if got := live.Filter(links); routes.Dead() != 0 || &got[0] != &links[0] || len(got) != 4 {
		t.Errorf("after Reset: tally %d, live set %v", routes.Dead(), got)
	}
}

func TestSwitchNoRouteDropsGracefully(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	dst := newSink(eng, 1)
	l := NewLink(eng, sw, dst, 1_000_000_000, 0, 10, LayerEdge)
	sw.SetRouter(&staticRouter{nil}) // failure window: no surviving route
	sw.Receive(dataPacket(1500), nil)
	sw.Receive(dataPacket(1500), nil)
	eng.Run()
	if len(dst.packets) != 0 {
		t.Fatal("packets forwarded despite empty route set")
	}
	if sw.NoRoute != 2 {
		t.Errorf("no-route drops = %d, want 2", sw.NoRoute)
	}
	if sw.Forwarded != 0 {
		t.Errorf("forwarded = %d, want 0", sw.Forwarded)
	}
	// Routing heals: forwarding resumes.
	sw.SetRouter(&staticRouter{[]*Link{l}})
	sw.Receive(dataPacket(1500), nil)
	eng.Run()
	if len(dst.packets) != 1 {
		t.Error("forwarding did not resume after routes returned")
	}
}

func TestSwitchExcludesRouteDeadLink(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	sinks := make([]*sink, 4)
	links := make([]*Link, 4)
	for i := range links {
		sinks[i] = newSink(eng, NodeID(i))
		links[i] = NewLink(eng, sw, sinks[i], 10_000_000_000, 0, 100000, LayerAgg)
	}
	// Route through LiveLinks, as every topology router does.
	var routes RouteState
	for _, l := range links {
		l.Routes = &routes
	}
	sw.SetRouter(&liveRouter{links, LiveLinks{Routes: &routes}})
	rng := sim.NewRNG(1)
	deadIdx := 2
	links[deadIdx].SetRouteDead(true)
	const n = 4000
	for i := 0; i < n; i++ {
		p := dataPacket(1500)
		p.SrcPort = uint16(rng.Intn(1 << 16)) // scatter across the set
		sw.Receive(p, nil)
	}
	eng.Run()
	if len(sinks[deadIdx].packets) != 0 {
		t.Errorf("route-dead link carried %d packets", len(sinks[deadIdx].packets))
	}
	// The survivors absorb the spray roughly evenly.
	for i, s := range sinks {
		if i == deadIdx {
			continue
		}
		if len(s.packets) < n/3-n/8 || len(s.packets) > n/3+n/8 {
			t.Errorf("survivor %d got %d packets, want about %d", i, len(s.packets), n/3)
		}
	}
}

// liveRouter is staticRouter with the liveness filtering every real
// Router implementation applies.
type liveRouter struct {
	links []*Link
	live  LiveLinks
}

func (r *liveRouter) NextLinks(dst NodeID) []*Link { return r.live.Filter(r.links) }

func TestSwitchCrashState(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	s := newSink(eng, 0)
	link := NewLink(eng, sw, s, 1_000_000_000, 0, 10, LayerAgg)
	sw.SetRouter(&staticRouter{[]*Link{link}})

	eng.At(10*sim.Millisecond, func() { sw.SetDown(true) })
	eng.At(20*sim.Millisecond, func() {
		if !sw.Down() {
			t.Error("switch not down")
		}
		// Redundant crash sources must not double-count.
		sw.SetDown(true)
		sw.Receive(dataPacket(1500), nil)
	})
	eng.At(30*sim.Millisecond, func() { sw.SetDown(false) })
	eng.Run()
	if sw.Down() {
		t.Error("switch still down after restart")
	}
	if sw.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", sw.Crashes)
	}
	if sw.CrashDrops != 1 || sw.Forwarded != 0 {
		t.Errorf("crashed switch forwarded: crash_drops=%d forwarded=%d", sw.CrashDrops, sw.Forwarded)
	}
	if sw.TimeDown(eng.Now()) != 20*sim.Millisecond {
		t.Errorf("downtime = %v, want 20ms", sw.TimeDown(eng.Now()))
	}
}
