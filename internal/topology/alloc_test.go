package topology

import (
	"runtime"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// TestHealthyForwardingAllocationFree is the data-plane allocation
// regression: on a healthy FatTree, a full packet journey — pooled
// allocation at the source host, store-and-forward over every hop, ECMP
// hashing at each switch, delivery and recycling at the destination —
// must not allocate once the pools are warm. This is the property the
// engine's event free list, the network's packet pool and the unrolled
// FlowHash exist to provide.
func TestHealthyForwardingAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	src := ft.Hosts[0]
	dst := ft.Hosts[len(ft.Hosts)-1] // cross-pod: the longest path
	var sport uint16 = 1024
	forward := func() {
		p := src.NewPacket()
		p.Src = src.ID()
		p.Dst = dst.ID()
		p.SrcPort = sport
		p.DstPort = 80
		p.Size = 1500
		p.PayloadLen = 1460
		p.FlowID = 1
		p.Flags = netem.FlagData
		sport++ // vary the ECMP choice across runs
		src.Send(p)
		eng.Run()
	}
	before := dst.RxPackets
	// Warm the pools beyond AllocsPerRun's single warm-up call.
	for i := 0; i < 32; i++ {
		forward()
	}
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, forward); allocs != 0 {
		t.Errorf("healthy forwarding allocates %.2f per packet journey, want 0", allocs)
	}
	if got := dst.RxPackets - before; got < 32+runs {
		t.Fatalf("only %d packets delivered; the measured path did not run", got)
	}
	if ft.Pool == nil || ft.Pool.Recycled == 0 {
		t.Error("network pool recycled nothing; delivery terminal is not returning packets")
	}
}

// TestTraceDisabledAllocationFree pins the trace subsystem's
// zero-overhead-when-disabled contract on the data plane: with a nil
// recorder explicitly installed on every link and switch — exactly the
// state an untraced run arms — the full packet journey must stay
// allocation-free. Every trace point is compiled in; disabled, each
// must cost only its nil-guard branch.
func TestTraceDisabledAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	for _, l := range ft.Links {
		l.SetRecorder(nil)
	}
	for _, sw := range ft.Switches {
		sw.SetRecorder(nil)
	}
	src := ft.Hosts[0]
	dst := ft.Hosts[len(ft.Hosts)-1]
	var sport uint16 = 1024
	forward := func() {
		p := src.NewPacket()
		p.Src = src.ID()
		p.Dst = dst.ID()
		p.SrcPort = sport
		p.DstPort = 80
		p.Size = 1500
		p.PayloadLen = 1460
		p.FlowID = 1
		p.Flags = netem.FlagData
		sport++
		src.Send(p)
		eng.Run()
	}
	before := dst.RxPackets
	for i := 0; i < 32; i++ {
		forward()
	}
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, forward); allocs != 0 {
		t.Errorf("forwarding with tracing disabled allocates %.2f per packet journey, want 0", allocs)
	}
	if got := dst.RxPackets - before; got < 32+runs {
		t.Fatalf("only %d packets delivered; the measured path did not run", got)
	}
}

// TestFabricBuildAllocationBudget pins what building one sweep replicate's
// fabric costs (K=4, 8 hosts per edge, 30-packet ports: 64 hosts, 20
// switches, 192 links). Hosts, switches and links come from one slab per
// kind and link rings start empty, so what is left is two engine callbacks
// per link plus the forwarding table: 480 objects and 111 KB when written
// with a router object per switch, where element-wise construction with
// eager rings took 1,386 and 667 KB.
func TestFabricBuildAllocationBudget(t *testing.T) {
	cfg := FatTreeConfig{K: 4, HostsPerEdge: 8, Link: DefaultLinkConfig()}
	eng := sim.NewEngine()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { NewFatTree(eng, cfg) })
	runtime.ReadMemStats(&after)
	if allocs > 800 {
		t.Errorf("building the fabric allocates %.0f objects, budget 800", allocs)
	}
	// AllocsPerRun calls the function once more to warm up.
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024; kb > 130 {
		t.Errorf("building the fabric allocates %.0f KB, budget 130", kb)
	}
}

// TestDegradedLookupAllocationFree: a lookup whose equal-cost set has a
// route-dead member is answered from the row's own filtered copy — on
// rows filled from structure and by breadth-first search, for a partly
// dead set and a wholly dead one, lookup after lookup and across
// different sets.
func TestDegradedLookupAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	mh := NewMultiHomed(eng, MultiHomedConfig{K: 4, HostsPerEdge: 2, Link: DefaultLinkConfig()})
	for _, n := range []*Network{&ft.Network, &mh.Network} {
		edge := n.Hosts[0].Uplinks()[0].Dst().(*netem.Switch)
		far, healthy := netem.NodeID(len(n.Hosts)), 0
		for healthy < 2 { // the farthest host reached over several uplinks
			far--
			healthy = len(edge.Router().NextLinks(far))
		}
		edge.Router().NextLinks(far)[0].SetRouteDead(true)
		for _, l := range n.Links { // host 1's access link: a wholly dead set
			if l.Dst() == netem.Node(n.Hosts[1]) {
				l.SetRouteDead(true)
			}
		}
		lookups := func() {
			if got := len(edge.Router().NextLinks(far)); got != healthy-1 {
				t.Fatalf("%s: %d live uplinks, want %d", n.Kind, got, healthy-1)
			}
			if got := len(edge.Router().NextLinks(1)); got != 0 {
				t.Fatalf("%s: %d links toward a host behind a dead access link", n.Kind, got)
			}
			if got := len(edge.Router().NextLinks(0)); got != 1 {
				t.Fatalf("%s: %d links toward a healthy local host", n.Kind, got)
			}
		}
		lookups()
		if allocs := testing.AllocsPerRun(100, lookups); allocs != 0 {
			t.Errorf("%s: degraded lookups allocate %.2f, want 0", n.Kind, allocs)
		}
	}
}

// TestBuildersFillTheirSlabs: every builder announces exactly the
// switches and links it goes on to create — one short panics at build,
// one over wastes a slab tail that nothing reports.
func TestBuildersFillTheirSlabs(t *testing.T) {
	eng := sim.NewEngine()
	link := DefaultLinkConfig()
	for _, n := range []*Network{
		&NewFatTree(eng, FatTreeConfig{K: 4, HostsPerEdge: 8, Link: link}).Network,
		&NewFatTree(eng, FatTreeConfig{K: 6, Link: link}).Network,
		&NewMultiHomed(eng, MultiHomedConfig{K: 4, HostsPerEdge: 3, Link: link}).Network,
		&NewMultiHomed(eng, MultiHomedConfig{K: 6, HostsPerEdge: 1, Link: link}).Network,
		&NewDumbbell(eng, DumbbellConfig{HostsPerSide: 3, Link: link}).Network,
	} {
		if len(n.Links) != len(n.linkSlab) || len(n.Switches) != len(n.switchSlab) {
			t.Errorf("%s: created %d of %d links, %d of %d switches", n.Kind,
				len(n.Links), len(n.linkSlab), len(n.Switches), len(n.switchSlab))
		}
	}
}
