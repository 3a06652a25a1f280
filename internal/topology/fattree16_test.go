package topology

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// k16 builds the K=16 fabric the parallel engine targets: 16 pods of
// 8+8 switches, 64 cores, and 27 hosts per edge for 3,456 servers —
// paper-scale arity at a CI-friendly host count.
func k16(eng *sim.Engine) *FatTree {
	return NewFatTree(eng, FatTreeConfig{K: 16, HostsPerEdge: 27, Link: DefaultLinkConfig()})
}

func TestFatTreeK16Dimensions(t *testing.T) {
	ft := k16(sim.NewEngine())
	if got := len(ft.Hosts); got != 3456 {
		t.Errorf("hosts = %d, want 3456", got)
	}
	// 16 pods x (8 edge + 8 agg) + (16/2)^2 core = 320.
	if got := len(ft.Switches); got != 320 {
		t.Errorf("switches = %d, want 320", got)
	}
	// Duplex cables: 3456 host + 16*8*8 edge-agg + 16*8*8 agg-core =
	// 5504, i.e. 11008 unidirectional links.
	if got := len(ft.Links); got != 11008 {
		t.Errorf("links = %d, want 11008", got)
	}
	for _, tc := range []struct {
		layer netem.Layer
		want  int
	}{
		{netem.LayerHost, 6912},
		{netem.LayerEdge, 2048},
		{netem.LayerAgg, 2048},
	} {
		if got := len(ft.LinksAtLayer(tc.layer)); got != tc.want {
			t.Errorf("%s links = %d, want %d", tc.layer, got, tc.want)
		}
	}
}

func TestFatTreeK16PathCounts(t *testing.T) {
	ft := k16(sim.NewEngine())
	cases := []struct {
		src, dst, want int
	}{
		{0, 1, 1},     // same edge
		{0, 27, 8},    // same pod, different edge: k/2
		{0, 3455, 64}, // different pod: (k/2)^2
	}
	for _, tc := range cases {
		if got := ft.PathCount(netem.NodeID(tc.src), netem.NodeID(tc.dst)); got != tc.want {
			t.Errorf("PathCount(%d,%d) = %d, want %d", tc.src, tc.dst, got, tc.want)
		}
	}
}

// TestFatTreeK16Liveness routes one cross-pod flow out of every pod
// through the structurally filled rows and checks delivery and hop
// count — the arity-16 row arithmetic (locators, core striping) exercised
// end to end on every pod.
func TestFatTreeK16Liveness(t *testing.T) {
	eng := sim.NewEngine()
	ft := k16(eng)
	hostsPerPod := len(ft.Hosts) / 16
	recs := make(map[uint64]*recorder)
	for pod := 0; pod < 16; pod++ {
		src := pod * hostsPerPod
		dst := ((pod+5)%16)*hostsPerPod + hostsPerPod - 1
		id := uint64(1 + pod)
		rec := &recorder{}
		recs[id] = rec
		ft.Hosts[dst].Register(id, 0, rec)
		sendPacket(&ft.Network, src, dst, uint16(1000+pod), 80, id, 0)
	}
	eng.Run()
	for id, rec := range recs {
		if len(rec.got) != 1 {
			t.Fatalf("flow %d delivered %d packets, want 1", id, len(rec.got))
		}
		if rec.got[0].Hops != 6 {
			t.Errorf("flow %d took %d hops, want 6 (cross-pod)", id, rec.got[0].Hops)
		}
	}
}

// TestFatTreeK16ConstructionAllocsLinear is the allocation budget for
// big fabrics: building the 3,456-host K=16 tree must cost a bounded
// number of allocations per element (host + switch + link), within 2x
// of the K=8 tree's per-element cost — i.e. construction stays linear
// in fabric size with no superlinear or per-pair blowup.
func TestFatTreeK16ConstructionAllocsLinear(t *testing.T) {
	perElem := func(build func(*sim.Engine) *FatTree) float64 {
		var elems int
		allocs := testing.AllocsPerRun(3, func() {
			ft := build(sim.NewEngine())
			elems = len(ft.Hosts) + len(ft.Switches) + len(ft.Links)
		})
		return allocs / float64(elems)
	}
	k8 := perElem(func(eng *sim.Engine) *FatTree {
		return NewFatTree(eng, FatTreeConfig{K: 8, HostsPerEdge: 16, Link: DefaultLinkConfig()})
	})
	k16 := perElem(k16)
	if k16 > 2*k8 {
		t.Errorf("K=16 construction allocates %.2f per element vs %.2f at K=8; growth is superlinear", k16, k8)
	}
}

// TestPartitionFatTreePodAffinity pins the partitioner's FatTree hint:
// at 16 shards on a K=16 tree every pod's 16 switches land on a single
// shard (so edge-agg cables are never boundaries), the 64 cores spread
// across all shards, and no shard is empty.
func TestPartitionFatTreePodAffinity(t *testing.T) {
	ft := k16(sim.NewEngine())
	assign, err := Partition(&ft.Network, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != len(ft.Switches) {
		t.Fatalf("assignment covers %d switches, want %d", len(assign), len(ft.Switches))
	}
	// Builder order: 128 edges (8 per pod), 128 aggs (8 per pod), 64
	// cores. Pod p owns edges [8p, 8p+8) and aggs [128+8p, 128+8p+8).
	seen := make(map[int]bool)
	for pod := 0; pod < 16; pod++ {
		shard := assign[pod*8]
		for i := 0; i < 8; i++ {
			if e := assign[pod*8+i]; e != shard {
				t.Errorf("pod %d edge %d on shard %d, pod on %d", pod, i, e, shard)
			}
			if a := assign[128+pod*8+i]; a != shard {
				t.Errorf("pod %d agg %d on shard %d, pod on %d", pod, i, a, shard)
			}
		}
		seen[shard] = true
	}
	if len(seen) != 16 {
		t.Errorf("pods cover %d shards, want 16", len(seen))
	}
	coreShards := make(map[int]bool)
	for i := 256; i < 320; i++ {
		if assign[i] < 0 || assign[i] >= 16 {
			t.Fatalf("core %d assigned out-of-range shard %d", i, assign[i])
		}
		coreShards[assign[i]] = true
	}
	if len(coreShards) != 16 {
		t.Errorf("cores cover %d shards, want 16", len(coreShards))
	}
}

// TestPartitionErrors covers the partitioner's refusals.
func TestPartitionErrors(t *testing.T) {
	eng := sim.NewEngine()
	ft := NewFatTree(eng, FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	if _, err := Partition(&ft.Network, 0); err == nil {
		t.Error("Partition accepted 0 shards")
	}
	if _, err := Partition(&ft.Network, len(ft.Switches)+1); err == nil {
		t.Error("Partition accepted more shards than switches")
	}
}
