package topology

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

func TestDumbbellDelivery(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DumbbellConfig{HostsPerSide: 3, Link: DefaultLinkConfig()})
	if len(d.Hosts) != 6 || len(d.Switches) != 2 {
		t.Fatalf("dimensions: %d hosts, %d switches", len(d.Hosts), len(d.Switches))
	}
	// Left i -> right i, and right 0 -> left 2 (reverse direction).
	for i := 0; i < 3; i++ {
		rec := &recorder{}
		id := uint64(i + 1)
		d.Hosts[3+i].Register(id, 0, rec)
		sendPacket(&d.Network, i, 3+i, 1000, 80, id, 0)
		eng.Run()
		if len(rec.got) != 1 {
			t.Fatalf("left %d -> right %d: delivered %d", i, i, len(rec.got))
		}
		if rec.got[0].Hops != 3 {
			t.Errorf("hops = %d, want 3", rec.got[0].Hops)
		}
	}
	rec := &recorder{}
	d.Hosts[2].Register(99, 0, rec)
	sendPacket(&d.Network, 3, 2, 1000, 80, 99, 0)
	eng.Run()
	if len(rec.got) != 1 {
		t.Fatal("reverse direction failed")
	}
}

func TestDumbbellSameSideDelivery(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DumbbellConfig{HostsPerSide: 2, Link: DefaultLinkConfig()})
	rec := &recorder{}
	d.Hosts[1].Register(7, 0, rec)
	sendPacket(&d.Network, 0, 1, 1000, 80, 7, 0)
	eng.Run()
	if len(rec.got) != 1 {
		t.Fatal("same-side delivery failed")
	}
	if rec.got[0].Hops != 2 {
		t.Errorf("hops = %d, want 2 (host-switch-host)", rec.got[0].Hops)
	}
	// Same-side traffic must not touch the bottleneck.
	if d.BottleneckLR.Stats.TxPackets != 0 || d.BottleneckRL.Stats.TxPackets != 0 {
		t.Error("same-side traffic crossed the bottleneck")
	}
}

func TestDumbbellBottleneckParameters(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DumbbellConfig{
		HostsPerSide:  2,
		Link:          LinkConfig{RateBps: 1_000_000_000, Delay: 10 * sim.Microsecond, QueueLimit: 50},
		BottleneckBps: 100_000_000,
	}
	d := NewDumbbell(eng, cfg)
	if d.BottleneckLR.Rate() != 100_000_000 {
		t.Errorf("bottleneck rate = %d", d.BottleneckLR.Rate())
	}
	// Access links keep the configured rate.
	up := d.Hosts[0].Uplinks()[0]
	if up.Rate() != 1_000_000_000 {
		t.Errorf("access rate = %d", up.Rate())
	}
	if d.PathCount(0, 3) != 1 {
		t.Errorf("dumbbell path count = %d, want 1", d.PathCount(0, 3))
	}
}

func TestDumbbellInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("HostsPerSide=0 did not panic")
		}
	}()
	NewDumbbell(sim.NewEngine(), DumbbellConfig{HostsPerSide: 0})
}

func TestMultiHomedDelivery(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMultiHomed(eng, MultiHomedConfig{K: 4, Link: DefaultLinkConfig()})
	if len(m.Hosts) != 16 {
		t.Fatalf("hosts = %d, want 16", len(m.Hosts))
	}
	for _, h := range m.Hosts {
		if len(h.Uplinks()) != 2 {
			t.Fatalf("host %d has %d uplinks, want 2", h.ID(), len(h.Uplinks()))
		}
	}
	// All-pairs smoke: every packet delivered, never through a host.
	flowID := uint64(0)
	recs := make(map[uint64]*recorder)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			flowID++
			rec := &recorder{}
			recs[flowID] = rec
			m.Hosts[dst].Register(flowID, 0, rec)
			sendPacket(&m.Network, src, dst, uint16(1000+src), 80, flowID, 0)
		}
	}
	eng.Run()
	for id, rec := range recs {
		if len(rec.got) != 1 {
			t.Fatalf("flow %d delivered %d packets", id, len(rec.got))
		}
	}
	for i, h := range m.Hosts {
		if h.Unclaimed != 0 {
			t.Errorf("host %d saw %d unclaimed packets (routed through a host?)", i, h.Unclaimed)
		}
	}
}

func TestMultiHomedSecondInterfaceDelivery(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMultiHomed(eng, MultiHomedConfig{K: 4, Link: DefaultLinkConfig()})
	rec := &recorder{}
	m.Hosts[15].Register(1, 0, rec)
	p := &netem.Packet{
		Src: 0, Dst: 15, SrcPort: 1000, DstPort: 80,
		Size: 1460, Flags: netem.FlagData, FlowID: 1,
	}
	m.Hosts[0].SendOn(p, 1) // second interface
	eng.Run()
	if len(rec.got) != 1 {
		t.Fatal("delivery via secondary interface failed")
	}
}

func TestMultiHomedPathCountExceedsSingleHomed(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMultiHomed(eng, MultiHomedConfig{K: 4, Link: DefaultLinkConfig()})
	single := NewFatTree(sim.NewEngine(), FatTreeConfig{K: 4, Link: DefaultLinkConfig()})
	// Inter-pod paths: dual homing doubles access-layer choice on both
	// ends, so the count must strictly exceed the single-homed count.
	mh := m.PathCount(0, 15)
	sh := single.PathCount(0, 15)
	if mh <= sh {
		t.Errorf("multi-homed paths = %d, single-homed = %d; want strictly more", mh, sh)
	}
}

func TestMultiHomedInvalidK(t *testing.T) {
	for _, k := range []int{0, 2, 3, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("K=%d did not panic", k)
				}
			}()
			NewMultiHomed(sim.NewEngine(), MultiHomedConfig{K: k})
		}()
	}
}
