package netem

import (
	"testing"

	"repro/internal/sim"
)

// recorder is an Endpoint that records delivered packets.
type recorder struct{ got []*Packet }

func (r *recorder) HandlePacket(p *Packet) { r.got = append(r.got, p) }

func TestHostDemux(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	a, b := &recorder{}, &recorder{}
	h.Register(10, 0, a)
	h.Register(10, 1, b)

	p0 := &Packet{FlowID: 10, Subflow: 0, Size: 100}
	p1 := &Packet{FlowID: 10, Subflow: 1, Size: 100}
	h.Receive(p0, nil)
	h.Receive(p1, nil)
	h.Receive(&Packet{FlowID: 99, Size: 100}, nil)

	if len(a.got) != 1 || a.got[0] != p0 {
		t.Errorf("endpoint a got %d packets", len(a.got))
	}
	if len(b.got) != 1 || b.got[0] != p1 {
		t.Errorf("endpoint b got %d packets", len(b.got))
	}
	if h.Unclaimed != 1 {
		t.Errorf("unclaimed = %d, want 1", h.Unclaimed)
	}
	if h.RxPackets != 3 {
		t.Errorf("rx packets = %d, want 3", h.RxPackets)
	}
}

func TestHostConnectionLevelFallback(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	conn := &recorder{}
	h.Register(10, -1, conn) // connection-level endpoint
	for sub := int8(0); sub < 4; sub++ {
		h.Receive(&Packet{FlowID: 10, Subflow: sub, Size: 100}, nil)
	}
	if len(conn.got) != 4 {
		t.Errorf("connection endpoint got %d packets, want 4", len(conn.got))
	}
}

func TestHostDuplicateRegistrationPanics(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	h.Register(10, 0, &recorder{})
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	h.Register(10, 0, &recorder{})
}

func TestHostUnregister(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	r := &recorder{}
	h.Register(10, 0, r)
	h.Unregister(10, 0)
	h.Receive(&Packet{FlowID: 10, Subflow: 0, Size: 100}, nil)
	if len(r.got) != 0 {
		t.Error("unregistered endpoint still receiving")
	}
	if h.Unclaimed != 1 {
		t.Errorf("unclaimed = %d, want 1", h.Unclaimed)
	}
	// Re-registering after unregister is allowed.
	h.Register(10, 0, r)
}

func TestHostSendViaUplink(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	dst := newSink(eng, 2)
	up := NewLink(eng, h, dst, 1_000_000_000, sim.Microsecond, 10, LayerHost)
	h.AttachUplink(up)
	h.Send(&Packet{Size: 1500})
	eng.Run()
	if len(dst.packets) != 1 {
		t.Fatalf("delivered %d, want 1", len(dst.packets))
	}
	if h.TxPackets != 1 {
		t.Errorf("tx packets = %d, want 1", h.TxPackets)
	}
}

func TestHostMultiHomedSendOn(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	d0, d1 := newSink(eng, 2), newSink(eng, 3)
	h.AttachUplink(NewLink(eng, h, d0, 1_000_000_000, 0, 10, LayerHost))
	h.AttachUplink(NewLink(eng, h, d1, 1_000_000_000, 0, 10, LayerHost))
	h.SendOn(&Packet{Size: 100}, 1)
	h.SendOn(&Packet{Size: 100}, 0)
	h.SendOn(&Packet{Size: 100}, 1)
	eng.Run()
	if len(d0.packets) != 1 || len(d1.packets) != 2 {
		t.Errorf("interface spread = %d/%d, want 1/2", len(d0.packets), len(d1.packets))
	}
}

func TestHostSendOnBadInterfacePanics(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	defer func() {
		if recover() == nil {
			t.Error("SendOn with no uplinks did not panic")
		}
	}()
	h.Send(&Packet{Size: 100})
}

func TestHostAttachForeignUplinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	other := NewHost(eng, 2)
	l := NewLink(eng, other, newSink(eng, 3), 1_000_000_000, 0, 10, LayerHost)
	defer func() {
		if recover() == nil {
			t.Error("attaching a foreign uplink did not panic")
		}
	}()
	h.AttachUplink(l)
}

// TestEndpointTableMatchesMap drives the host's open-addressed demux
// table and a plain map through the same random register / unregister /
// re-register sequence — few distinct flows, so probe runs collide, grow
// and backshift — and after every step checks each key's exact lookup and
// the exact-then-(flow, -1) fallback Receive performs.
func TestEndpointTableMatchesMap(t *testing.T) {
	type key struct {
		flow uint64
		sub  int8
	}
	rng := sim.NewRNG(7)
	var table endpointTable
	ref := make(map[key]Endpoint)
	keyOf := func() key {
		// Flows that collide in the low bits and ones that differ only there.
		return key{uint64(rng.Intn(6)) << (8 * uint(rng.Intn(3))), int8(rng.Intn(5) - 1)}
	}
	maxLive := 0
	for step := 0; step < 20000; step++ {
		k := keyOf()
		switch _, bound := ref[k]; {
		case bound && rng.Intn(3) > 0:
			table.remove(k.flow, k.sub)
			delete(ref, k)
		case !bound:
			ep := &recorder{}
			if !table.put(k.flow, k.sub, ep) || table.put(k.flow, k.sub, ep) {
				t.Fatalf("step %d: put(%d, %d) must bind once and refuse the second time", step, k.flow, k.sub)
			}
			ref[k] = ep
		}
		table.remove(keyOf().flow, 9) // never bound: must be a no-op
		maxLive = max(maxLive, len(ref))
		if table.n != len(ref) {
			t.Fatalf("step %d: table holds %d bindings, map %d", step, table.n, len(ref))
		}
		for flow := uint64(0); flow < 6; flow++ {
			for shift := uint(0); shift < 24; shift += 8 {
				for sub := int8(-1); sub < 5; sub++ {
					k := key{flow << shift, sub}
					want := ref[k]
					if got := table.get(k.flow, k.sub); got != want {
						t.Fatalf("step %d: get(%d, %d) = %v, map has %v", step, k.flow, k.sub, got, want)
					}
				}
			}
		}
	}
	if len(table.slots) >= 4*(maxLive+1) {
		t.Errorf("table grew to %d slots for at most %d live keys", len(table.slots), maxLive)
	}

	// The same through the Host: fallback order and the duplicate panic.
	h := NewHost(sim.NewEngine(), 1)
	exact, conn := &recorder{}, &recorder{}
	h.Register(5, -1, conn)
	h.Register(5, 2, exact)
	h.Receive(&Packet{FlowID: 5, Subflow: 2}, nil)
	h.Receive(&Packet{FlowID: 5, Subflow: 3}, nil)
	h.Unregister(5, 2)
	h.Receive(&Packet{FlowID: 5, Subflow: 2}, nil)
	h.Receive(&Packet{FlowID: 6, Subflow: 2}, nil)
	if len(exact.got) != 1 || len(conn.got) != 2 || h.Unclaimed != 1 {
		t.Errorf("exact %d, connection-level %d, unclaimed %d; want 1, 2, 1", len(exact.got), len(conn.got), h.Unclaimed)
	}
	h.Reset()
	h.Register(5, -1, conn) // a Reset host accepts the binding again
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration after Reset did not panic")
		}
	}()
	h.Register(5, -1, exact)
}
