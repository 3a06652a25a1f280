package tcp

import (
	"repro/internal/netem"
	"repro/internal/sim"
)

// wire is a programmable middlebox used by transport tests: it forwards
// packets between two hosts and can drop or delay selected packets
// deterministically.
type wire struct {
	eng *sim.Engine
	id  netem.NodeID
	out map[netem.NodeID]*netem.Link

	// drop, when non-nil, discards packets for which it returns true.
	drop func(p *netem.Packet) bool
	// delay, when non-nil, adds extra forwarding latency per packet
	// (a crude reordering generator).
	delay func(p *netem.Packet) sim.Time

	dropped int
}

func (w *wire) ID() netem.NodeID { return w.id }

func (w *wire) Receive(p *netem.Packet, from *netem.Link) {
	if w.drop != nil && w.drop(p) {
		w.dropped++
		return
	}
	l := w.out[p.Dst]
	if w.delay != nil {
		if d := w.delay(p); d > 0 {
			w.eng.Schedule(d, func() { l.Enqueue(p) })
			return
		}
	}
	l.Enqueue(p)
}

// testNet is a two-host network joined by a programmable wire.
type testNet struct {
	eng  *sim.Engine
	a, b *netem.Host
	w    *wire
}

// newTestNet builds hostA(0) -- wire(2) -- hostB(1) with 1 Gb/s links,
// 10 us propagation per link and deep queues (loss only via w.drop).
func newTestNet() *testNet {
	eng := sim.NewEngine()
	a := netem.NewHost(eng, 0)
	b := netem.NewHost(eng, 1)
	w := &wire{eng: eng, id: 2, out: make(map[netem.NodeID]*netem.Link)}
	const rate = 1_000_000_000
	const prop = 10 * sim.Microsecond
	aw := netem.NewLink(eng, a, w, rate, prop, 10000, netem.LayerHost)
	bw := netem.NewLink(eng, b, w, rate, prop, 10000, netem.LayerHost)
	wa := netem.NewLink(eng, w, a, rate, prop, 10000, netem.LayerHost)
	wb := netem.NewLink(eng, w, b, rate, prop, 10000, netem.LayerHost)
	a.AttachUplink(aw)
	b.AttachUplink(bw)
	w.out[a.ID()] = wa
	w.out[b.ID()] = wb
	return &testNet{eng: eng, a: a, b: b, w: w}
}

// transfer wires a sender on host a and receiver on host b for size
// bytes and returns them (not yet started).
func (tn *testNet) transfer(flowID uint64, size int64) (*Sender, *Receiver) {
	rcv := NewReceiver(tn.b, flowID, size)
	snd := NewSender(SenderOptions{
		Host:    tn.a,
		Dst:     tn.b.ID(),
		FlowID:  flowID,
		SrcPort: 10000,
		DstPort: 80,
		Source:  &BytesSource{Size: size},
	})
	return snd, rcv
}
