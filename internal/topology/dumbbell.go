package topology

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
)

// DumbbellConfig describes the classic two-switch dumbbell: n hosts on
// each side, access links at Link.RateBps, and a single bottleneck link
// between the switches at BottleneckBps with Link's queue limit. It is
// the canonical topology for congestion-control unit tests and the
// coexistence (fairness) experiments, where several protocols share one
// bottleneck.
type DumbbellConfig struct {
	HostsPerSide  int
	Link          LinkConfig // access links
	BottleneckBps int64      // 0 means same as access links
}

// Validate reports the first field NewDumbbell cannot build from.
func (c DumbbellConfig) Validate() error {
	if c.HostsPerSide < 1 || c.BottleneckBps < 0 {
		return fmt.Errorf("topology: dumbbell needs HostsPerSide >= 1 and BottleneckBps >= 0, got %d and %d",
			c.HostsPerSide, c.BottleneckBps)
	}
	n := float64(c.HostsPerSide)
	return checkSize(2*n, 2, 2*(2*n+1))
}

// Dumbbell is a built dumbbell network. Hosts 0..n-1 are on the left,
// n..2n-1 on the right.
type Dumbbell struct {
	Network
	Cfg DumbbellConfig

	// Bottleneck links, left-to-right and right-to-left.
	BottleneckLR *netem.Link
	BottleneckRL *netem.Link
}

// NewDumbbell builds the dumbbell and fills its rows by breadth-first
// search (trivially single-path here).
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig) *Dumbbell {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.BottleneckBps == 0 {
		cfg.BottleneckBps = cfg.Link.RateBps
	}

	d := &Dumbbell{Cfg: cfg}
	d.Kind = fmt.Sprintf("dumbbell(n=%d)", cfg.HostsPerSide)

	n := cfg.HostsPerSide
	d.alloc(eng, 2*n, 2, 2*(2*n+1))
	// Both switches sit at the core tier: their inter-switch cable is
	// the LayerCore bottleneck.
	left := d.addSwitch(1)
	right := d.addSwitch(2)

	for i := 0; i < n; i++ {
		up, _ := d.connectHost(d.Hosts[i], left, cfg.Link, netem.LayerHost)
		d.Hosts[i].AttachUplink(up)
	}
	for i := 0; i < n; i++ {
		up, _ := d.connectHost(d.Hosts[n+i], right, cfg.Link, netem.LayerHost)
		d.Hosts[n+i].AttachUplink(up)
	}
	bcfg := cfg.Link
	bcfg.RateBps = cfg.BottleneckBps
	d.BottleneckLR, d.BottleneckRL = d.connect(left, right, bcfg, netem.LayerCore)

	d.fillRows()
	d.validate()
	return d
}
