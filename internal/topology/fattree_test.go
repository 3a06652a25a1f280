package topology

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// recorder collects packets delivered to a host endpoint.
type recorder struct{ got []*netem.Packet }

func (r *recorder) HandlePacket(p *netem.Packet) { r.got = append(r.got, p) }

// sendPacket injects one data packet from src to dst through the network.
func sendPacket(n *Network, src, dst int, sport, dport uint16, flowID uint64, seq int64) {
	p := &netem.Packet{
		Src: netem.NodeID(src), Dst: netem.NodeID(dst),
		SrcPort: sport, DstPort: dport,
		Size: 1460, Flags: netem.FlagData, PayloadLen: 1400,
		FlowID: uint32(flowID), Seq: seq,
	}
	n.Hosts[src].Send(p)
}

func TestFatTreeDimensions(t *testing.T) {
	tests := []struct {
		k, hpe                 int
		hosts, switches, links int
	}{
		// k=4, 1:1: 16 hosts, 4 pods x (2 edge + 2 agg) + 4 core = 20
		// switches. Links (duplex pairs x2): host 16 + edge-agg 16 + agg-core 16 = 48 -> 96.
		{4, 0, 16, 20, 96},
		// Paper: k=8, 16 hosts/edge: 512 hosts, 8x(4+4)+16 = 80 switches.
		// host links 512 + edge-agg 8*4*4=128 + agg-core 8*4*4=128 -> 768 duplex -> 1536.
		{8, 16, 512, 80, 1536},
	}
	for _, tc := range tests {
		eng := sim.NewEngine()
		cfg := FatTreeConfig{K: tc.k, HostsPerEdge: tc.hpe, Link: DefaultLinkConfig()}
		ft := NewFatTree(eng, cfg)
		if got := len(ft.Hosts); got != tc.hosts {
			t.Errorf("k=%d hpe=%d: hosts = %d, want %d", tc.k, tc.hpe, got, tc.hosts)
		}
		if got := len(ft.Switches); got != tc.switches {
			t.Errorf("k=%d hpe=%d: switches = %d, want %d", tc.k, tc.hpe, got, tc.switches)
		}
		if got := len(ft.Links); got != tc.links {
			t.Errorf("k=%d hpe=%d: links = %d, want %d", tc.k, tc.hpe, got, tc.links)
		}
	}
}

func TestFatTreeInvalidK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("K=%d did not panic", k)
				}
			}()
			NewFatTree(sim.NewEngine(), FatTreeConfig{K: k})
		}()
	}
}

func TestFatTreeAllPairsDelivery(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	n := len(ft.Hosts)
	flowID := uint64(0)
	recs := make(map[uint64]*recorder)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			flowID++
			rec := &recorder{}
			recs[flowID] = rec
			ft.Hosts[dst].Register(flowID, 0, rec)
			sendPacket(&ft.Network, src, dst, uint16(1000+src), 80, flowID, 0)
		}
	}
	eng.Run()
	for id, rec := range recs {
		if len(rec.got) != 1 {
			t.Fatalf("flow %d delivered %d packets, want 1", id, len(rec.got))
		}
	}
	// No host should have unclaimed packets (routing never transits hosts).
	for i, h := range ft.Hosts {
		if h.Unclaimed != 0 {
			t.Errorf("host %d has %d unclaimed packets", i, h.Unclaimed)
		}
	}
}

func TestFatTreeHopCounts(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	// Same edge: host0 -> host1 is host-edge-host = 2 links.
	// Same pod, different edge: host0 -> host2 = 4 links.
	// Different pod: host0 -> host15 = 6 links.
	cases := []struct {
		src, dst, hops int
	}{{0, 1, 2}, {0, 2, 4}, {0, 15, 6}}
	for i, tc := range cases {
		rec := &recorder{}
		id := uint64(100 + i)
		ft.Hosts[tc.dst].Register(id, 0, rec)
		sendPacket(&ft.Network, tc.src, tc.dst, 1234, 80, id, 0)
		eng.Run()
		if len(rec.got) != 1 {
			t.Fatalf("case %d: delivered %d", i, len(rec.got))
		}
		if int(rec.got[0].Hops) != tc.hops {
			t.Errorf("%d->%d: hops = %d, want %d", tc.src, tc.dst, rec.got[0].Hops, tc.hops)
		}
	}
}

func TestFatTreePathCountFormula(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	cases := []struct {
		src, dst, want int
	}{
		{0, 0, 1},  // self
		{0, 1, 1},  // same edge
		{0, 2, 2},  // same pod, different edge: k/2
		{0, 15, 4}, // different pod: (k/2)^2
	}
	for _, tc := range cases {
		if got := ft.PathCount(netem.NodeID(tc.src), netem.NodeID(tc.dst)); got != tc.want {
			t.Errorf("PathCount(%d,%d) = %d, want %d", tc.src, tc.dst, got, tc.want)
		}
	}
}

// TestFatTreePathCountMatchesDAG verifies the closed-form path count
// against the walk over the rows that a failure switches PathCount to,
// and both against an exhaustive count over the reference tables.
func TestFatTreePathCountMatchesDAG(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, HostsPerEdge: 4, Link: DefaultLinkConfig()})
	ref := referenceTables(&ft.Network)
	formula := ft.pathCount
	for src := 0; src < len(ft.Hosts); src += 3 {
		for dst := 0; dst < len(ft.Hosts); dst += 5 {
			s, d := netem.NodeID(src), netem.NodeID(dst)
			if src == dst {
				continue
			}
			want := referencePathCount(&ft.Network, ref, s, d)
			ft.pathCount = nil // walk the rows
			walked := ft.PathCount(s, d)
			ft.pathCount = formula
			if got := ft.PathCount(s, d); got != want || walked != want {
				t.Fatalf("PathCount(%d,%d) = %d by formula, %d by walk, DAG count = %d", src, dst, got, walked, want)
			}
		}
	}
}

func TestFatTreeNoIntraFlowReordering(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	rec := &recorder{}
	ft.Hosts[15].Register(1, 0, rec)
	for i := 0; i < 100; i++ {
		sendPacket(&ft.Network, 0, 15, 5555, 80, 1, int64(i))
	}
	eng.Run()
	if len(rec.got) != 100 {
		t.Fatalf("delivered %d, want 100", len(rec.got))
	}
	for i, p := range rec.got {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d arrived with seq %d: fixed 5-tuple must not reorder", i, p.Seq)
		}
	}
}

func TestFatTreeScatterUsesAllCores(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig(), Seed: 3})
	rec := &recorder{}
	ft.Hosts[15].Register(1, 0, rec)
	rng := sim.NewRNG(9)
	const pkts = 2000
	for i := 0; i < pkts; i++ {
		i := i
		// Pace injections at the access-link rate so nothing drops.
		eng.At(sim.Time(i)*150*sim.Microsecond, func() {
			sendPacket(&ft.Network, 0, 15, uint16(rng.Intn(1<<16)), 80, 1, int64(i))
		})
	}
	eng.Run()
	if len(rec.got) != pkts {
		t.Fatalf("delivered %d, want %d (no drops expected at this load)", len(rec.got), pkts)
	}
	// Every agg->core link out of pod 0 should have carried traffic.
	used := 0
	total := 0
	for _, l := range ft.LinksAtLayer(netem.LayerAgg) {
		if _, isSwitch := l.Src().(*netem.Switch); !isSwitch {
			continue
		}
		total++
		if l.Stats.TxPackets > 0 {
			used++
		}
	}
	// 4 agg->core uplinks carry pod0->core traffic, 4 core->agg links
	// carry core->pod3. With 2000 scattered packets all 8 must be hit.
	if used < 8 {
		t.Errorf("only %d/%d agg-layer links carried scattered traffic", used, total)
	}
}

func TestFatTreeLocators(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, HostsPerEdge: 4, Link: DefaultLinkConfig()})
	// 4 pods x 2 edges x 4 hosts = 32 hosts; hostsPerPod = 8.
	cases := []struct {
		host, pod int
	}{{0, 0}, {3, 0}, {4, 0}, {8, 1}, {31, 3}}
	for _, tc := range cases {
		if got := ft.PodOf(netem.NodeID(tc.host)); got != tc.pod {
			t.Errorf("PodOf(%d) = %d, want %d", tc.host, got, tc.pod)
		}
	}
}

func TestLinksAtLayer(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	if got := len(ft.LinksAtLayer(netem.LayerHost)); got != 32 {
		t.Errorf("host links = %d, want 32", got)
	}
	if got := len(ft.LinksAtLayer(netem.LayerEdge)); got != 32 {
		t.Errorf("edge links = %d, want 32", got)
	}
	if got := len(ft.LinksAtLayer(netem.LayerAgg)); got != 32 {
		t.Errorf("agg links = %d, want 32", got)
	}
}

func TestFatTreeRoutersExcludeRouteDeadLinks(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	src, dst := netem.NodeID(0), netem.NodeID(len(f.Hosts)-1) // inter-pod pair

	row := func(n netem.Node) *netem.Row { return n.(*netem.Switch).Router() }
	// Walk the rows from the source edge switch upward.
	edge := row(f.Hosts[src].Uplinks()[0].Dst())
	up := edge.NextLinks(dst)
	if len(up) != 2 {
		t.Fatalf("edge equal-cost set = %d links, want 2 agg uplinks", len(up))
	}
	// Kill one agg uplink for routing: the set shrinks.
	up[0].SetRouteDead(true)
	if got := edge.NextLinks(dst); len(got) != 1 || got[0] != up[1] {
		t.Fatalf("route-dead agg uplink still in the set: %v", got)
	}
	// Kill both: the edge row reports no route (the switch counts and
	// drops; see netem).
	up[1].SetRouteDead(true)
	if got := edge.NextLinks(dst); len(got) != 0 {
		t.Fatalf("empty failure window returned %d links", len(got))
	}
	up[0].SetRouteDead(false)
	up[1].SetRouteDead(false)

	// Same at the aggregation layer (core uplinks)...
	agg := row(up[0].Dst())
	coreUp := agg.NextLinks(dst)
	if len(coreUp) != 2 {
		t.Fatalf("agg equal-cost set = %d links, want 2 core uplinks", len(coreUp))
	}
	coreUp[1].SetRouteDead(true)
	if got := agg.NextLinks(dst); len(got) != 1 || got[0] != coreUp[0] {
		t.Fatal("route-dead core uplink still in the agg set")
	}
	coreUp[1].SetRouteDead(false)

	// ...and at the core, whose per-pod set is a single link.
	core := row(coreUp[0].Dst())
	down := core.NextLinks(dst)
	if len(down) != 1 {
		t.Fatalf("core pod set = %d links, want 1", len(down))
	}
	down[0].SetRouteDead(true)
	if got := core.NextLinks(dst); len(got) != 0 {
		t.Fatal("core kept forwarding toward a route-dead pod downlink")
	}
	down[0].SetRouteDead(false)

	// Packets still flow end to end once everything is revived.
	if got := edge.NextLinks(dst); len(got) != 2 {
		t.Fatalf("revived edge set = %d links", len(got))
	}
}

func TestBFSRowsExcludeRouteDeadLinks(t *testing.T) {
	eng := sim.NewEngine()
	// VL2 fills every row by breadth-first search.
	v := NewVL2(eng, VL2Config{DA: 4, DI: 4, HostsPerToR: 2, Link: DefaultLinkConfig()})
	// ToR 0 homes to aggs {0,1}, ToR 2 to aggs {2,3}: no shared agg, so
	// the shortest path crosses the intermediate mesh and the source ToR
	// has a genuinely multipath equal-cost set.
	src, dst := netem.NodeID(0), netem.NodeID(4)
	tor := v.Hosts[src].Uplinks()[0].Dst().(*netem.Switch).Router()
	set := tor.NextLinks(dst)
	if len(set) < 2 {
		t.Fatalf("ToR equal-cost set = %d links; VL2 should be multipath", len(set))
	}
	dead := set[0]
	dead.SetRouteDead(true)
	filtered := tor.NextLinks(dst)
	if len(filtered) != len(set)-1 {
		t.Fatalf("filtered set = %d links, want %d", len(filtered), len(set)-1)
	}
	for _, l := range filtered {
		if l == dead {
			t.Fatal("route-dead link survived the row's live filter")
		}
	}
	dead.SetRouteDead(false)
	if got := tor.NextLinks(dst); len(got) != len(set) {
		t.Fatal("revived link missing from the set")
	}
}
