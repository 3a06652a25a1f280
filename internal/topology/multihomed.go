package topology

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
)

// MultiHomedConfig describes the paper's future-work topology: a k-ary
// FatTree in which every server is dual-homed, attached to two distinct
// edge switches in its pod. The paper's roadmap argues that "the more
// parallel paths at the access layer, the higher the burst tolerance".
//
// The wiring keeps the FatTree fabric identical and adds, for every
// host, a second access link to the next edge switch in the pod
// (wrapping around), so edge switches carry 2x the host links.
type MultiHomedConfig struct {
	K            int // pods; must be even and >= 4 (needs >= 2 edges per pod)
	HostsPerEdge int // primary-homed hosts per edge switch; 0 means k/2
	Link         LinkConfig
	Seed         uint64
}

// Validate reports the first field NewMultiHomed cannot build from.
func (c MultiHomedConfig) Validate() error {
	if c.K < 4 || c.K%2 != 0 || c.HostsPerEdge < 0 {
		return fmt.Errorf("topology: multi-homed FatTree needs even K >= 4 and HostsPerEdge >= 0, got %d and %d", c.K, c.HostsPerEdge)
	}
	k, hpe := float64(c.K), float64(c.HostsPerEdge)
	if hpe == 0 {
		hpe = k / 2
	}
	hosts := k * k / 2 * hpe
	return checkSize(hosts, 5*k*k/4, 2*(2*hosts+k*k*k/2))
}

// MultiHomed is a built dual-homed FatTree.
type MultiHomed struct {
	Network
}

// NewMultiHomed builds the dual-homed FatTree. Its rows are filled by
// breadth-first search (the structure becomes irregular with dual homing,
// and the search is exact).
func NewMultiHomed(eng *sim.Engine, cfg MultiHomedConfig) *MultiHomed {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.HostsPerEdge == 0 {
		cfg.HostsPerEdge = cfg.K / 2
	}

	k := cfg.K
	half := k / 2
	m := &MultiHomed{}
	m.Kind = fmt.Sprintf("multihomed-fattree(k=%d,hosts/edge=%d)", k, cfg.HostsPerEdge)
	numHosts := k * half * cfg.HostsPerEdge

	// Two access cables per host, then the plain FatTree's fabric; two
	// links per cable.
	numEdge := k * half
	m.alloc(eng, numHosts, 2*numEdge+half*half, 2*(2*numHosts+2*numEdge*half))
	m.setHashSalt(0x5eed_fa77_ee00_0002)
	seedRNG := sim.NewRNG(cfg.Seed ^ m.hashSalt)
	for i := 0; i < numEdge; i++ {
		m.addSwitch(seedRNG.Uint32())
	}
	for i := 0; i < numEdge; i++ {
		m.addSwitch(seedRNG.Uint32())
	}
	for i := 0; i < half*half; i++ {
		m.addSwitch(seedRNG.Uint32())
	}
	edges, aggs, cores := m.Switches[:numEdge], m.Switches[numEdge:2*numEdge], m.Switches[2*numEdge:]

	// Host links: primary to edge e, secondary to edge (e+1) mod half
	// within the pod.
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for i := 0; i < cfg.HostsPerEdge; i++ {
				h := m.Hosts[(p*half+e)*cfg.HostsPerEdge+i]
				primary := edges[p*half+e]
				secondary := edges[p*half+(e+1)%half]
				up1, _ := m.connectHost(h, primary, cfg.Link, netem.LayerHost)
				up2, _ := m.connectHost(h, secondary, cfg.Link, netem.LayerHost)
				h.AttachUplink(up1)
				h.AttachUplink(up2)
			}
		}
	}
	// Fabric identical to the plain FatTree.
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				m.connect(edges[p*half+e], aggs[p*half+a], cfg.Link, netem.LayerEdge)
			}
		}
	}
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				m.connect(aggs[p*half+a], cores[a*half+j], cfg.Link, netem.LayerAgg)
			}
		}
	}

	m.fillRows()
	m.validate()
	return m
}
