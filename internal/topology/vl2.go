package topology

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
)

// VL2Config describes a VL2-style Clos network (Greenberg et al.,
// SIGCOMM 2009/2011, the paper's reference [3]): ToR switches dual-homed
// to aggregation switches, and a complete bipartite mesh between
// aggregation and intermediate switches. Fabric links run at a multiple
// of the server rate (VL2 used 10x), and flows are Valiant-load-balanced
// by ECMP through the intermediates.
//
// The paper notes that topologies like VL2 "incorporate centralised
// components which can provide similar information" to FatTree
// addressing — i.e. the path count MMPTCP's packet-scatter threshold
// needs. Here that oracle is derived from the routing DAG.
type VL2Config struct {
	// DA is the number of aggregation switches (even). Each ToR
	// connects to 2 of them; intermediates connect to all of them.
	DA int
	// DI is the number of intermediate switches.
	DI int
	// HostsPerToR is the number of servers per ToR switch.
	HostsPerToR int
	// FabricMultiple scales ToR-agg and agg-intermediate link rates
	// relative to the server links (VL2: 10). 0 means 10.
	FabricMultiple int
	Link           LinkConfig // server-link parameters
	Seed           uint64
}

// Validate reports the first field NewVL2 cannot build from.
func (c VL2Config) Validate() error {
	switch {
	case c.DA < 2 || c.DA%2 != 0:
		return fmt.Errorf("topology: VL2 DA must be even and >= 2, got %d", c.DA)
	case c.DI < 1:
		return fmt.Errorf("topology: VL2 DI must be >= 1, got %d", c.DI)
	case c.HostsPerToR < 1:
		return fmt.Errorf("topology: VL2 needs hosts per ToR >= 1, got %d", c.HostsPerToR)
	case c.FabricMultiple < 0:
		return fmt.Errorf("topology: negative VL2 FabricMultiple %d", c.FabricMultiple)
	}
	tors, da, di := 2*float64(c.DA), float64(c.DA), float64(c.DI)
	hosts := tors * float64(c.HostsPerToR)
	if err := checkSize(hosts, tors+da+di, 2*(hosts+2*tors+da*di)); err != nil {
		return err
	}
	return c.Link.Validate()
}

// VL2 is a built VL2-style Clos network.
type VL2 struct {
	Network
	Cfg      VL2Config
	numHosts int
}

// NumHosts returns the number of servers.
func (v *VL2) NumHosts() int { return v.numHosts }

// NewVL2 builds the Clos, wires fabric links at FabricMultiple times the
// server rate and fills the forwarding rows by breadth-first search;
// PathCount walks them.
func NewVL2(eng *sim.Engine, cfg VL2Config) *VL2 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.Link.applyDefaults()
	if cfg.FabricMultiple == 0 {
		cfg.FabricMultiple = 10
	}

	// VL2 sizing: DA*DI/4... we keep it simple and direct: the number
	// of ToRs is DA*2 (each agg pairs with 4 ToR uplinks in VL2's
	// formulation; any count works for the simulation, so expose it as
	// DA ToR pairs).
	numToR := cfg.DA * 2
	v := &VL2{Cfg: cfg}
	v.Kind = fmt.Sprintf("vl2(da=%d,di=%d,hosts/tor=%d)", cfg.DA, cfg.DI, cfg.HostsPerToR)
	v.numHosts = numToR * cfg.HostsPerToR

	// One access cable per server, two uplink cables per ToR, the full
	// agg-intermediate mesh; two links per cable.
	v.alloc(eng, v.numHosts, numToR+cfg.DA+cfg.DI, 2*(v.numHosts+2*numToR+cfg.DA*cfg.DI))
	v.setHashSalt(0x5eed_fa77_ee00_0003)
	seedRNG := sim.NewRNG(cfg.Seed ^ v.hashSalt)
	for i := 0; i < numToR; i++ {
		v.addSwitch(seedRNG.Uint32())
	}
	for i := 0; i < cfg.DA; i++ {
		v.addSwitch(seedRNG.Uint32())
	}
	for i := 0; i < cfg.DI; i++ {
		v.addSwitch(seedRNG.Uint32())
	}
	tors, aggs, ints := v.Switches[:numToR], v.Switches[numToR:numToR+cfg.DA], v.Switches[numToR+cfg.DA:]

	// Server links.
	for t := 0; t < numToR; t++ {
		for i := 0; i < cfg.HostsPerToR; i++ {
			h := v.Hosts[t*cfg.HostsPerToR+i]
			up, _ := v.connectHost(h, tors[t], cfg.Link, netem.LayerHost)
			h.AttachUplink(up)
		}
	}
	fabric := cfg.Link
	fabric.RateBps = cfg.Link.RateBps * int64(cfg.FabricMultiple)
	// Each ToR dual-homes to two aggregation switches.
	for t := 0; t < numToR; t++ {
		a1 := t % cfg.DA
		a2 := (t + 1) % cfg.DA
		v.connect(tors[t], aggs[a1], fabric, netem.LayerEdge)
		v.connect(tors[t], aggs[a2], fabric, netem.LayerEdge)
	}
	// Complete bipartite agg <-> intermediate mesh.
	for a := 0; a < cfg.DA; a++ {
		for i := 0; i < cfg.DI; i++ {
			v.connect(aggs[a], ints[i], fabric, netem.LayerAgg)
		}
	}

	v.fillRows()
	v.validate()
	return v
}
