package netem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// oneSet gives sw a row that answers links toward each of the four
// destination hosts 0..3, on the route-state tally routes (a fresh one
// when nil), and returns the tally.
func oneSet(sw *Switch, routes *RouteState, links ...*Link) *RouteState {
	if routes == nil {
		routes = new(RouteState)
	}
	sw.SetRow([][]*Link{links}, make([]int32, 4), routes)
	return routes
}

func TestSwitchECMPDeterministicPerFlow(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	sinks := make([]*sink, 4)
	links := make([]*Link, 4)
	for i := range links {
		sinks[i] = newSink(eng, NodeID(i))
		links[i] = NewLink(eng, sw, sinks[i], 1_000_000_000, 0, 1000, LayerAgg)
	}
	oneSet(sw, nil, links...)

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
	oneSet(sw, nil, links...)

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
	oneSet(sw, nil, l)
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
	oneSet(sw, nil, l)
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

// TestSwitchTransientDropClassification pins the loop-drop accounting:
// hop-backstop drops inside an open convergence window (some switch of
// the network holds a staged row) are LoopDrops, outside they stay
// hop-limit noise in Dropped; no-route drops inside the window
// additionally count as TransientNoRoute; and lookups served while the
// switch's own row is stale are counted.
func TestSwitchTransientDropClassification(t *testing.T) {
	eng := sim.NewEngine()
	sw, other := NewSwitch(eng, 100, 7), NewSwitch(eng, 101, 7)
	dst := newSink(eng, 1)
	l := NewLink(eng, sw, dst, 1_000_000_000, 0, 10, LayerEdge)
	m := NewLink(eng, other, dst, 1_000_000_000, 0, 10, LayerEdge)
	routes := oneSet(sw, nil, l)
	oneSet(other, routes, m)

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
	// Another switch stages a row: the window is open and the same drop
	// is a micro-loop casualty.
	if !other.Router().Write(2, nil, true) {
		t.Fatal("a staged write to a row with no staged row did not fork one")
	}
	sw.Receive(overHops(), nil)
	if sw.Dropped != 1 || sw.LoopDrops != 1 || sw.StaleLookups != 0 {
		t.Fatalf("inside window: dropped=%d loops=%d stale=%d, want 1/1/0", sw.Dropped, sw.LoopDrops, sw.StaleLookups)
	}
	// An empty set inside the window: NoRoute and TransientNoRoute.
	sw.Router().Write(2, nil, false)
	sw.Receive(dataPacket(1500), nil)
	if sw.NoRoute != 1 || sw.TransientNoRoute != 1 {
		t.Fatalf("window blackhole: noroute=%d transient=%d, want 1/1", sw.NoRoute, sw.TransientNoRoute)
	}
	if other.Router().Flip() != 1 {
		t.Fatal("the flipped row does not hold its one override")
	}
	sw.Receive(dataPacket(1500), nil)
	if sw.NoRoute != 2 || sw.TransientNoRoute != 1 {
		t.Fatalf("steady blackhole: noroute=%d transient=%d, want 2/1", sw.NoRoute, sw.TransientNoRoute)
	}
	// Stale-row lookups are counted whether or not they forward: the
	// staged row routes again, the serving one still drops.
	sw.Router().Write(2, []*Link{l}, true)
	sw.Receive(dataPacket(1500), nil)
	if sw.StaleLookups != 1 || sw.NoRoute != 3 {
		t.Fatalf("stale lookups = %d, noroute = %d, want 1 and 3", sw.StaleLookups, sw.NoRoute)
	}
	sw.Router().Flip()
	sw.Receive(dataPacket(1500), nil)
	if sw.StaleLookups != 1 || sw.Forwarded != 1 {
		t.Fatalf("fresh lookup: stale=%d forwarded=%d, want 1 and 1", sw.StaleLookups, sw.Forwarded)
	}
	eng.Run()
}

func TestFlowHashProperties(t *testing.T) {
	// Property: the hash depends only on the 5-tuple and seed.
	f := func(src, dst int32, sport, dport uint16, seed uint32) bool {
		p1 := &Packet{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sport, DstPort: dport, Seq: 1, Size: 100}
		p2 := &Packet{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sport, DstPort: dport, Seq: 999, Size: 1500, Flags: FlagRetx}
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
}

// TestLiveLinksFiltering pins a row's live filter on its as-built sets.
func TestLiveLinksFiltering(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	links := make([]*Link, 4)
	var routes RouteState
	for i := range links {
		links[i] = NewLink(eng, sw, newSink(eng, NodeID(i)), 1_000_000_000, 0, 10, LayerAgg)
		links[i].Routes = &routes
	}
	// Host 0 is reached over all four links, host 1 over links 3 and 2.
	sw.SetRow([][]*Link{links, {links[3], links[2]}}, []int32{0, 1}, &routes)
	row := sw.Router()
	// All alive: the exact as-built set comes back, and the row sizes no
	// live sets.
	if got := row.NextLinks(0); &got[0] != &links[0] || len(got) != 4 {
		t.Error("all-alive fast path must return the as-built set")
	}
	if n := testing.AllocsPerRun(100, func() { row.NextLinks(0); row.NextLinks(1) }); n != 0 || row.live != nil {
		t.Errorf("healthy lookups allocate %v objects (live sets %v), want none", n, row.live)
	}
	links[1].SetRouteDead(true)
	links[3].SetRouteDead(true)
	links[3].SetRouteDead(true) // repeating a state is not a transition
	if routes.Dead() != 2 {
		t.Errorf("route-dead tally = %d, want 2", routes.Dead())
	}
	got := row.NextLinks(0)
	if len(got) != 2 || got[0] != links[0] || got[1] != links[2] {
		t.Errorf("filtered set = %v, want links 0 and 2", got)
	}
	// Once the first degraded lookup has sized the row's live sets,
	// lookups of every built set, in any order, allocate nothing.
	if n := testing.AllocsPerRun(100, func() {
		if len(row.NextLinks(1)) != 1 || len(row.NextLinks(0)) != 2 || len(row.NextLinks(1)) != 1 {
			t.Fatal("wrong live set")
		}
	}); n != 0 {
		t.Errorf("degraded lookups allocate %v objects, want 0", n)
	}
	// Kill, revive and kill another between two lookups of the same set:
	// each lookup serves the fabric as it is now, never a stale answer.
	links[0].SetRouteDead(true)
	if got := row.NextLinks(0); len(got) != 1 || got[0] != links[2] {
		t.Errorf("after killing link 0: live set %v, want link 2", got)
	}
	links[0].SetRouteDead(false)
	links[2].SetRouteDead(true)
	if got := row.NextLinks(0); len(got) != 1 || got[0] != links[0] {
		t.Errorf("after reviving link 0 and killing link 2: live set %v, want link 0", got)
	}
	if got := row.NextLinks(1); len(got) != 0 {
		t.Errorf("set {3, 2} with both dead serves %v", got)
	}
	links[2].SetRouteDead(false)
	if got := row.NextLinks(1); len(got) != 1 || got[0] != links[2] {
		t.Errorf("after reviving link 2: set {3, 2} serves %v, want link 2", got)
	}
	// Everything dead: empty, not nil-panicking.
	links[0].SetRouteDead(true)
	links[2].SetRouteDead(true)
	if got := row.NextLinks(0); len(got) != 0 {
		t.Errorf("all-dead set has %d links", len(got))
	}
	links[1].SetRouteDead(false)
	if got := row.NextLinks(0); len(got) != 1 || got[0] != links[1] {
		t.Error("revived link missing from live set")
	}
	// Reset revives for routing too, and the tally follows.
	for _, l := range links {
		l.Reset()
	}
	if got := row.NextLinks(0); routes.Dead() != 0 || &got[0] != &links[0] || len(got) != 4 {
		t.Errorf("after Reset: tally %d, live set %v", routes.Dead(), got)
	}
	// A destination outside the row has no links.
	for _, dst := range []NodeID{2, -1, 1 << 30} {
		if got := row.NextLinks(dst); len(got) != 0 {
			t.Errorf("NextLinks(%d) = %v, want none", dst, got)
		}
	}
}

// TestRowOverridesServedAsInstalled pins what routing's writes do to a
// row: an override is served exactly as installed, route-dead members
// and all (a stale switch in a staggered window keeps hashing onto a
// now-dead link), while an as-built entry is live-filtered; Overrides
// counts only entries that differ from the live-filtered as-built
// answer; and a row no entry overrides any more is back on its as-built
// row, its override sets gone.
func TestRowOverridesServedAsInstalled(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	a := NewLink(eng, sw, newSink(eng, 0), 1_000_000_000, 0, 10, LayerAgg)
	b := NewLink(eng, sw, newSink(eng, 1), 1_000_000_000, 0, 10, LayerAgg)
	routes := oneSet(sw, nil, a, b)
	a.Routes, b.Routes = routes, routes
	row := sw.Router()

	row.Write(0, []*Link{a}, false) // overrides host 0 with {a}
	row.Write(1, []*Link{a}, false) // shares the interned set
	if len(row.sets) != 2 || row.shared() {
		t.Fatalf("two equal overrides hold %d sets (shared row %t), want 2 on a private row", len(row.sets), row.shared())
	}
	a.SetRouteDead(true)
	if got := row.NextLinks(0); len(got) != 1 || got[0] != a {
		t.Errorf("override served %v, want the installed {a}, dead member and all", got)
	}
	if got := row.NextLinks(2); len(got) != 1 || got[0] != b {
		t.Errorf("as-built entry served %v, want it live-filtered to {b}", got)
	}
	if n := row.Overrides(); n != 2 {
		t.Errorf("Overrides = %d, want 2", n)
	}
	row.Write(0, []*Link{b}, false) // {b} is what the filter answers anyway
	if n := row.Overrides(); n != 1 {
		t.Errorf("Overrides = %d, want 1: an override equal to the live-filtered answer is not counted", n)
	}
	row.Write(0, []*Link{a, b}, false)
	row.Write(1, []*Link{a, b}, false)
	if !row.shared() || len(row.sets) != 1 || row.Overrides() != 0 {
		t.Errorf("healed row: shared %t, %d sets, %d overrides; want the as-built row back", row.shared(), len(row.sets), row.Overrides())
	}
	// A fresh override reuses the storage of a dropped set, and the row's
	// private copy: a warm cycle allocates nothing.
	if n := testing.AllocsPerRun(50, func() {
		row.Write(3, []*Link{b}, false)
		row.Write(3, []*Link{a, b}, false)
	}); n != 0 {
		t.Errorf("a warm override cycle allocates %v objects, want 0", n)
	}
	// Reset drops overrides and a staged row alike.
	row.Write(3, nil, false)
	row.Write(2, nil, true)
	row.Reset()
	if !row.shared() || row.Stale() || routes.staged != 0 || len(row.sets) != 1 {
		t.Errorf("after Reset: shared %t stale %t staged tally %d, %d sets", row.shared(), row.Stale(), routes.staged, len(row.sets))
	}
}

func TestSwitchNoRouteDropsGracefully(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	dst := newSink(eng, 1)
	l := NewLink(eng, sw, dst, 1_000_000_000, 0, 10, LayerEdge)
	oneSet(sw, nil) // failure window: no surviving route
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
	oneSet(sw, nil, l)
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
	routes := new(RouteState)
	for i := range links {
		sinks[i] = newSink(eng, NodeID(i))
		links[i] = NewLink(eng, sw, sinks[i], 10_000_000_000, 0, 100000, LayerAgg)
		links[i].Routes = routes
	}
	oneSet(sw, routes, links...)
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

func TestSwitchCrashState(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 100, 7)
	s := newSink(eng, 0)
	link := NewLink(eng, sw, s, 1_000_000_000, 0, 10, LayerAgg)
	oneSet(sw, nil, link)

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
