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

// Validate reports the first field NewFatTree cannot build from.
func (c FatTreeConfig) Validate() error {
	if c.K < 2 || c.K%2 != 0 || c.HostsPerEdge < 0 {
		return fmt.Errorf("topology: FatTree needs even K >= 2 and HostsPerEdge >= 0, got %d and %d", c.K, c.HostsPerEdge)
	}
	k, hpe := float64(c.K), float64(c.HostsPerEdge)
	if hpe == 0 {
		hpe = k / 2
	}
	hosts := k * k / 2 * hpe
	if err := checkSize(hosts, 5*k*k/4, 2*(hosts+k*k*k/2)); err != nil {
		return err
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
}

// PodOf returns the pod index of a host.
func (f *FatTree) PodOf(h netem.NodeID) int { return int(h) / f.hostsPerPod }

// edgeOf returns the global edge-switch ordinal of a host.
func (f *FatTree) edgeOf(h netem.NodeID) int {
	return int(h) / f.hostsPerEdge
}

// NewFatTree builds the FatTree, wires every link, fills every switch's
// forwarding row from the structure and sets up the path-count formula.
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
	numHosts := k * f.hostsPerPod

	numEdge := k * half
	numAgg := k * half
	numCore := half * half

	// Node IDs: hosts first, then edge, agg, core switches. Each cable
	// tier (host-edge, edge-agg, agg-core) is two links per cable.
	f.alloc(eng, numHosts, numEdge+numAgg+numCore, 2*(numHosts+numEdge*half+numAgg*half))
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
	edges := f.Switches[:numEdge]

	// Forwarding rows, filled while wiring. Set 0 of an edge or agg
	// switch is its uplinks — the answer toward every host outside it, so
	// a zeroed row is nearly complete — and set 1+i its i-th downlink; a
	// core's set p is its downlink to pod p.
	row := f.rows()
	sets := make([][][]*netem.Link, len(f.Switches))
	ups := make([]*netem.Link, (numEdge+numAgg)*half)
	for i := range sets {
		switch {
		case i < numEdge:
			sets[i] = make([][]*netem.Link, 1+cfg.HostsPerEdge)
		case i < numEdge+numAgg:
			sets[i] = make([][]*netem.Link, 1+half)
		default:
			sets[i] = make([][]*netem.Link, k)
			continue
		}
		sets[i][0] = ups[i*half : i*half : (i+1)*half]
	}

	// Host <-> edge links.
	for e := 0; e < numEdge; e++ {
		for i := 0; i < cfg.HostsPerEdge; i++ {
			h := e*cfg.HostsPerEdge + i
			up, _ := f.connectHost(f.Hosts[h], edges[e], cfg.Link, netem.LayerHost)
			f.Hosts[h].AttachUplink(up)
			sets[e][1+i] = f.lastLinkSet()
			row(e)[h] = int32(1 + i)
		}
	}
	// Edge <-> agg links (full bipartite within each pod).
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				eg := p*half + e
				ag := numEdge + p*half + a
				up, _ := f.connect(edges[eg], f.Switches[ag], cfg.Link, netem.LayerEdge)
				sets[eg][0] = append(sets[eg][0], up)
				sets[ag][1+e] = f.lastLinkSet()
				for h := eg * cfg.HostsPerEdge; h < (eg+1)*cfg.HostsPerEdge; h++ {
					row(ag)[h] = int32(1 + e)
				}
			}
		}
	}
	// Agg <-> core links: agg switch with pod-local index a connects to
	// the k/2 core switches in group a (cores a*half .. a*half+half-1).
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			ag := numEdge + p*half + a
			for j := 0; j < half; j++ {
				c := numEdge + numAgg + a*half + j
				up, _ := f.connect(f.Switches[ag], f.Switches[c], cfg.Link, netem.LayerAgg)
				sets[ag][0] = append(sets[ag][0], up)
				sets[c][p] = f.lastLinkSet()
			}
		}
	}
	for i := numEdge + numAgg; i < len(f.Switches); i++ {
		for h := f.hostsPerPod; h < numHosts; h++ {
			row(i)[h] = int32(f.PodOf(netem.NodeID(h)))
		}
	}
	for i, sw := range f.Switches {
		sw.SetRow(sets[i], row(i), &f.routes)
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
