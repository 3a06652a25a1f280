package topology

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
)

// FatTreeConfig describes a k-ary FatTree (Al-Fares et al., SIGCOMM 2008)
// with configurable over-subscription at the edge: attaching more than
// k/2 hosts per edge switch over-subscribes the edge uplinks. The paper's
// topology — 512 servers at 4:1 — is K=8 with 16 hosts per edge switch
// (16 host links vs 4 uplinks per edge switch).
type FatTreeConfig struct {
	K            int // pods; must be even and >= 2
	HostsPerEdge int // hosts per edge switch; 0 means k/2 (1:1)
	Link         LinkConfig
	Seed         uint64 // perturbs per-switch ECMP hash seeds
}

// PaperFatTreeConfig returns the evaluation topology from the paper:
// a 4:1 over-subscribed FatTree with 512 servers (K=8, 16 hosts/edge).
func PaperFatTreeConfig() FatTreeConfig {
	return FatTreeConfig{K: 8, HostsPerEdge: 16, Link: DefaultLinkConfig()}
}

// Oversubscription returns the edge over-subscription ratio, e.g. 4 for
// the paper's 4:1 configuration.
func (c FatTreeConfig) Oversubscription() float64 {
	hpe := c.HostsPerEdge
	if hpe == 0 {
		hpe = c.K / 2
	}
	return float64(hpe) / float64(c.K/2)
}

// Validate reports the first field NewFatTree cannot build from.
func (c FatTreeConfig) Validate() error {
	if c.K < 2 || c.K%2 != 0 || c.HostsPerEdge < 0 {
		return fmt.Errorf("topology: FatTree needs even K >= 2 and HostsPerEdge >= 0, got %d and %d", c.K, c.HostsPerEdge)
	}
	return c.Link.Validate()
}

// FatTree is a built k-ary FatTree network.
type FatTree struct {
	Network
	Cfg FatTreeConfig

	hostsPerEdge int
	edgePerPod   int // k/2
	aggPerPod    int // k/2
	hostsPerPod  int
	numHosts     int
}

// NumHosts returns the number of servers in the tree.
func (f *FatTree) NumHosts() int { return f.numHosts }

// PodOf returns the pod index of a host.
func (f *FatTree) PodOf(h netem.NodeID) int { return int(h) / f.hostsPerPod }

// EdgeIndexOf returns the pod-local edge-switch index of a host.
func (f *FatTree) EdgeIndexOf(h netem.NodeID) int {
	return (int(h) % f.hostsPerPod) / f.hostsPerEdge
}

// edgeOf returns the global edge-switch ordinal of a host.
func (f *FatTree) edgeOf(h netem.NodeID) int {
	return int(h) / f.hostsPerEdge
}

// NewFatTree builds the FatTree, wires every link, installs structured
// ECMP routers on every switch and sets up the path-count oracle.
func NewFatTree(eng *sim.Engine, cfg FatTreeConfig) *FatTree {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.Link.applyDefaults()
	if cfg.HostsPerEdge == 0 {
		cfg.HostsPerEdge = cfg.K / 2
	}

	k := cfg.K
	half := k / 2
	f := &FatTree{
		Cfg:          cfg,
		hostsPerEdge: cfg.HostsPerEdge,
		edgePerPod:   half,
		aggPerPod:    half,
		hostsPerPod:  half * cfg.HostsPerEdge,
	}
	f.Kind = fmt.Sprintf("fattree(k=%d,hosts/edge=%d)", k, cfg.HostsPerEdge)
	f.numHosts = k * f.hostsPerPod

	numEdge := k * half
	numAgg := k * half
	numCore := half * half

	// Node IDs: hosts first, then edge, agg, core switches. Each cable
	// tier (host-edge, edge-agg, agg-core) is two links per cable.
	f.alloc(eng, f.numHosts, numEdge+numAgg+numCore, 2*(f.numHosts+numEdge*half+numAgg*half))
	f.setHashSalt(0x5eed_fa77_ee00_0001)
	seedRNG := sim.NewRNG(cfg.Seed ^ f.hashSalt)
	for i := 0; i < numEdge; i++ {
		f.addSwitch(seedRNG.Uint32())
	}
	for i := 0; i < numAgg; i++ {
		f.addSwitch(seedRNG.Uint32())
	}
	for i := 0; i < numCore; i++ {
		f.addSwitch(seedRNG.Uint32())
	}
	edges, aggs, cores := f.Switches[:numEdge], f.Switches[numEdge:numEdge+numAgg], f.Switches[numEdge+numAgg:]

	// Routers, populated while wiring.
	edgeRouters := make([]*fatTreeEdgeRouter, numEdge)
	for i := range edgeRouters {
		edgeRouters[i] = &fatTreeEdgeRouter{
			f:         f,
			live:      f.liveLinks(),
			edge:      i,
			hostLinks: make([][]*netem.Link, cfg.HostsPerEdge),
		}
	}
	aggRouters := make([]*fatTreeAggRouter, numAgg)
	for i := range aggRouters {
		aggRouters[i] = &fatTreeAggRouter{
			f:         f,
			live:      f.liveLinks(),
			pod:       i / half,
			edgeLinks: make([][]*netem.Link, half),
		}
	}
	coreRouters := make([]*fatTreeCoreRouter, numCore)
	for i := range coreRouters {
		coreRouters[i] = &fatTreeCoreRouter{f: f, live: f.liveLinks(), podLinks: make([][]*netem.Link, k)}
	}

	// Host <-> edge links.
	for e := 0; e < numEdge; e++ {
		for i := 0; i < cfg.HostsPerEdge; i++ {
			h := f.Hosts[e*cfg.HostsPerEdge+i]
			up, _ := f.connectHost(h, edges[e], cfg.Link, netem.LayerHost)
			h.AttachUplink(up)
			edgeRouters[e].hostLinks[i] = f.lastLinkSet()
		}
	}
	// Edge <-> agg links (full bipartite within each pod).
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				eg := p*half + e
				ag := p*half + a
				up, _ := f.connect(edges[eg], aggs[ag], cfg.Link, netem.LayerEdge)
				edgeRouters[eg].upLinks = append(edgeRouters[eg].upLinks, up)
				aggRouters[ag].edgeLinks[e] = f.lastLinkSet()
			}
		}
	}
	// Agg <-> core links: agg switch with pod-local index a connects to
	// the k/2 core switches in group a (cores a*half .. a*half+half-1).
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			ag := p*half + a
			for j := 0; j < half; j++ {
				c := a*half + j
				up, _ := f.connect(aggs[ag], cores[c], cfg.Link, netem.LayerAgg)
				aggRouters[ag].upLinks = append(aggRouters[ag].upLinks, up)
				coreRouters[c].podLinks[p] = f.lastLinkSet()
			}
		}
	}

	for i, sw := range edges {
		f.setRouter(sw, edgeRouters[i])
	}
	for i, sw := range aggs {
		f.setRouter(sw, aggRouters[i])
	}
	for i, sw := range cores {
		f.setRouter(sw, coreRouters[i])
	}

	// Shard partitioning keeps pods whole: the edge and aggregation
	// switches of pod p all land on shard p*shards/k, so the only
	// cross-shard links are the agg<->core tier (plus core placement:
	// cores spread round-robin, balancing the core heap load). More
	// shards than pods would split pods — fall back to the generic
	// contiguous split rather than pretend the hint still helps.
	f.partitionHint = func(shards int) []int {
		if shards > k {
			return nil
		}
		assign := make([]int, len(f.Switches))
		for i := range assign {
			switch {
			case i < numEdge: // edge: pod i/half
				assign[i] = (i / half) * shards / k
			case i < numEdge+numAgg: // agg: pod (i-numEdge)/half
				assign[i] = ((i - numEdge) / half) * shards / k
			default: // core
				assign[i] = (i - numEdge - numAgg) % shards
			}
		}
		return assign
	}

	f.pathCount = func(src, dst netem.NodeID) int {
		switch {
		case src == dst:
			return 1
		case f.edgeOf(src) == f.edgeOf(dst):
			return 1 // via the shared edge switch
		case f.PodOf(src) == f.PodOf(dst):
			return half // one path per aggregation switch
		default:
			return half * half // agg choice x core choice
		}
	}
	f.validate()
	return f
}

// fatTreeEdgeRouter forwards down to a local host or up to any
// aggregation switch in the pod.
type fatTreeEdgeRouter struct {
	f         *FatTree
	live      netem.LiveLinks
	edge      int             // global edge ordinal
	hostLinks [][]*netem.Link // single-element sets, indexed by local host
	upLinks   []*netem.Link   // all agg uplinks (equal cost)
}

func (r *fatTreeEdgeRouter) NextLinks(dst netem.NodeID) []*netem.Link {
	if r.f.edgeOf(dst) == r.edge {
		return r.live.Filter(r.hostLinks[int(dst)%r.f.hostsPerEdge])
	}
	return r.live.Filter(r.upLinks)
}

// fatTreeAggRouter forwards down to the destination's edge switch when
// the destination is in this pod, otherwise up to any attached core.
type fatTreeAggRouter struct {
	f         *FatTree
	live      netem.LiveLinks
	pod       int
	edgeLinks [][]*netem.Link // single-element sets, indexed by pod-local edge
	upLinks   []*netem.Link   // core uplinks (equal cost)
}

func (r *fatTreeAggRouter) NextLinks(dst netem.NodeID) []*netem.Link {
	if r.f.PodOf(dst) == r.pod {
		return r.live.Filter(r.edgeLinks[r.f.EdgeIndexOf(dst)])
	}
	return r.live.Filter(r.upLinks)
}

// fatTreeCoreRouter forwards down to the aggregation switch of the
// destination's pod (each core connects to exactly one agg per pod).
type fatTreeCoreRouter struct {
	f        *FatTree
	live     netem.LiveLinks
	podLinks [][]*netem.Link // single-element sets, indexed by pod
}

func (r *fatTreeCoreRouter) NextLinks(dst netem.NodeID) []*netem.Link {
	return r.live.Filter(r.podLinks[r.f.PodOf(dst)])
}
