package mmptcp

// Torture tests: every protocol must deliver every byte exactly, no
// matter what the network does (random loss, heavy jitter, both), as
// long as the simulation runs long enough. These exercise the loss
// recovery machinery far beyond the benign experiment regimes.

import (
	"fmt"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// lossyWire is a two-host harness whose middlebox drops and delays
// packets at seeded random.
type lossyWire struct {
	eng  *sim.Engine
	a, b *netem.Host
	w    *tortureNode
}

type tortureNode struct {
	eng      *sim.Engine
	id       netem.NodeID
	out      map[netem.NodeID]*netem.Link
	rng      *sim.RNG
	dropProb float64  // drop probability per packet
	jitter   sim.Time // max extra delay per packet
	dropped  int64
}

func (w *tortureNode) ID() netem.NodeID { return w.id }
func (w *tortureNode) Receive(p *netem.Packet, from *netem.Link) {
	if w.dropProb > 0 && w.rng.Float64() < w.dropProb {
		w.dropped++
		return
	}
	l := w.out[p.Dst]
	if w.jitter > 0 {
		d := sim.Time(int63n(w.rng, int64(w.jitter)))
		w.eng.Schedule(d, func() { l.Enqueue(p) })
		return
	}
	l.Enqueue(p)
}

// int63n draws a uniform int64 in [0, n), n > 0, by rejection sampling on
// the top 63 bits of rng's output.
func int63n(rng *sim.RNG, n int64) int64 {
	maxV := uint64(1)<<63 - 1
	limit := maxV - maxV%uint64(n)
	for {
		if v := rng.Uint64() >> 1; v < limit {
			return int64(v % uint64(n))
		}
	}
}

func newLossyWire(seed uint64, dropProb float64, jitter sim.Time) *lossyWire {
	eng := sim.NewEngine()
	a := netem.NewHost(eng, 0)
	b := netem.NewHost(eng, 1)
	w := &tortureNode{
		eng: eng, id: 2, out: make(map[netem.NodeID]*netem.Link),
		rng: sim.NewRNG(seed), dropProb: dropProb, jitter: jitter,
	}
	const rate = 1_000_000_000
	aw := netem.NewLink(eng, a, w, rate, 10*sim.Microsecond, 10000, netem.LayerHost)
	bw := netem.NewLink(eng, b, w, rate, 10*sim.Microsecond, 10000, netem.LayerHost)
	wa := netem.NewLink(eng, w, a, rate, 10*sim.Microsecond, 10000, netem.LayerHost)
	wb := netem.NewLink(eng, w, b, rate, 10*sim.Microsecond, 10000, netem.LayerHost)
	a.AttachUplink(aw)
	b.AttachUplink(bw)
	w.out[a.ID()] = wa
	w.out[b.ID()] = wb
	return &lossyWire{eng: eng, a: a, b: b, w: w}
}

// netStub adapts the lossy wire into the minimal shape Dial needs.
func (lw *lossyWire) network() *Network {
	return &Network{Eng: lw.eng, Hosts: []*netem.Host{lw.a, lw.b}}
}

func TestTortureAllProtocolsDeliverExactly(t *testing.T) {
	const size = 350_000
	protos := []Protocol{ProtoTCP, ProtoMPTCP, ProtoMMPTCP}
	scenarios := []struct {
		name   string
		drop   float64
		jitter sim.Time
	}{
		{"loss5pct", 0.05, 0},
		{"loss15pct", 0.15, 0},
		{"jitter1ms", 0, sim.Millisecond},
		{"loss5pct+jitter", 0.05, 500 * sim.Microsecond},
	}
	for _, sc := range scenarios {
		for _, proto := range protos {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", sc.name, proto, seed)
				t.Run(name, func(t *testing.T) {
					lw := newLossyWire(seed, sc.drop, sc.jitter)
					cfg := Config{Protocol: proto, Subflows: 4}
					conn, err := Dial(lw.network(), cfg, DialConfig{
						FlowID: 1, Src: 0, Dst: 1, Size: size, RNG: sim.NewRNG(seed * 7),
					})
					if err != nil {
						t.Fatal(err)
					}
					conn.Start()
					lw.eng.RunUntil(10 * 60 * sim.Second)
					if !conn.Receiver().Complete() {
						t.Fatalf("incomplete after 10 virtual minutes: delivered %d/%d (wire dropped %d)",
							conn.Receiver().Delivered(), size, lw.w.dropped)
					}
					if got := conn.Receiver().Delivered(); got != size {
						t.Fatalf("delivered %d, want exactly %d", got, size)
					}
					// Sender side must also converge.
					lw.eng.RunUntil(11 * 60 * sim.Second)
					st := conn.Stats()
					if st.BytesSent < size {
						t.Errorf("sent %d < size", st.BytesSent)
					}
				})
			}
		}
	}
}

func TestTortureBlackholeThenHeal(t *testing.T) {
	// Total blackout for 5 seconds mid-transfer: the connection must
	// survive on RTO backoff and finish after the path heals.
	for _, proto := range []Protocol{ProtoTCP, ProtoMPTCP, ProtoMMPTCP} {
		t.Run(string(proto), func(t *testing.T) {
			lw := newLossyWire(1, 0, 0)
			cfg := Config{Protocol: proto, Subflows: 4}
			conn, err := Dial(lw.network(), cfg, DialConfig{
				FlowID: 1, Src: 0, Dst: 1, Size: 700_000, RNG: sim.NewRNG(3),
			})
			if err != nil {
				t.Fatal(err)
			}
			conn.Start()
			lw.eng.At(5*sim.Millisecond, func() { lw.w.dropProb = 1 })
			lw.eng.At(5*sim.Second, func() { lw.w.dropProb = 0 })
			lw.eng.RunUntil(5 * 60 * sim.Second)
			if !conn.Receiver().Complete() {
				t.Fatalf("never recovered from blackout: delivered %d", conn.Receiver().Delivered())
			}
			if conn.Stats().Timeouts == 0 {
				t.Error("no timeouts despite a 5s blackout")
			}
		})
	}
}

func TestTortureManyParallelFlowsOneReceiver(t *testing.T) {
	// 30 concurrent MMPTCP flows into one host, 10% loss: all complete,
	// all deliver exactly their bytes (no cross-flow corruption).
	lw := newLossyWire(9, 0.10, 200*sim.Microsecond)
	net := lw.network()
	cfg := Config{Protocol: ProtoMMPTCP, Subflows: 2}
	const n = 30
	const size = 70_000
	conns := make([]Conn, n)
	rng := sim.NewRNG(5)
	for i := 0; i < n; i++ {
		conn, err := Dial(net, cfg, DialConfig{
			FlowID: uint64(i + 1), Src: 0, Dst: 1, Size: size, RNG: rng.Split(),
		})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		conn.Start()
	}
	lw.eng.RunUntil(10 * 60 * sim.Second)
	for i, c := range conns {
		if !c.Receiver().Complete() {
			t.Errorf("flow %d incomplete: %d/%d", i, c.Receiver().Delivered(), size)
			continue
		}
		if c.Receiver().Delivered() != size {
			t.Errorf("flow %d delivered %d", i, c.Receiver().Delivered())
		}
	}
}
