package topology

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

func TestVL2Dimensions(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVL2(eng, VL2Config{DA: 4, DI: 4, HostsPerToR: 5, Link: DefaultLinkConfig()})
	if len(v.Hosts) != 40 { // 8 ToRs x 5 hosts
		t.Errorf("hosts = %d, want 40", len(v.Hosts))
	}
	// 8 ToRs + 4 aggs + 4 intermediates.
	if len(v.Switches) != 16 {
		t.Errorf("switches = %d, want 16", len(v.Switches))
	}
	// Fabric links run 10x faster than server links.
	var serverRate, fabricRate int64
	for _, l := range v.Links {
		switch l.Layer() {
		case netem.LayerHost:
			serverRate = l.Rate()
		case netem.LayerAgg:
			fabricRate = l.Rate()
		}
	}
	if fabricRate != 10*serverRate {
		t.Errorf("fabric %d vs server %d, want 10x", fabricRate, serverRate)
	}
}

func TestVL2AllPairsDelivery(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVL2(eng, VL2Config{DA: 4, DI: 2, HostsPerToR: 2, Link: DefaultLinkConfig()})
	n := len(v.Hosts)
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
			v.Hosts[dst].Register(flowID, 0, rec)
			sendPacket(&v.Network, src, dst, uint16(1000+src), 80, flowID, 0)
		}
	}
	eng.Run()
	for id, rec := range recs {
		if len(rec.got) != 1 {
			t.Fatalf("flow %d delivered %d packets", id, len(rec.got))
		}
	}
	for i, h := range v.Hosts {
		if h.Unclaimed != 0 {
			t.Errorf("host %d saw unclaimed packets", i)
		}
	}
}

func TestVL2PathDiversity(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVL2(eng, VL2Config{DA: 4, DI: 4, HostsPerToR: 2, Link: DefaultLinkConfig()})
	// ToR0 homes to aggs {0,1}, ToR2 to aggs {2,3} (disjoint): 16 paths
	// climb to an intermediate (2 agg choices x 4 intermediates x 2
	// descending aggs) and 4 more transit a sibling ToR at equal length
	// (pure shortest-path ECMP does not enforce VL2's up-down rule).
	paths := v.PathCount(0, netem.NodeID(2*2)) // first host of ToR2
	if paths != 20 {
		t.Errorf("disjoint-agg inter-ToR path count = %d, want 20", paths)
	}
	// ToR0 and ToR1 share agg 1: the 2-hop route through it is the
	// unique shortest path.
	if got := v.PathCount(0, netem.NodeID(1*2)); got != 1 {
		t.Errorf("shared-agg path count = %d, want 1", got)
	}
	// Same ToR: single path through the ToR switch.
	if got := v.PathCount(0, 1); got != 1 {
		t.Errorf("same-ToR path count = %d, want 1", got)
	}
}

func TestVL2InvalidConfigs(t *testing.T) {
	cases := []VL2Config{
		{DA: 0, DI: 1, HostsPerToR: 1},
		{DA: 3, DI: 1, HostsPerToR: 1},
		{DA: 2, DI: 0, HostsPerToR: 1},
		{DA: 2, DI: 1, HostsPerToR: 0},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			NewVL2(sim.NewEngine(), cfg)
		}()
	}
}
