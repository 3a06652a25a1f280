package netem

import (
	"testing"

	"repro/internal/sim"
)

// sink is a Node that records received packets with their arrival times.
type sink struct {
	id      NodeID
	eng     *sim.Engine
	packets []*Packet
	times   []sim.Time
}

func newSink(eng *sim.Engine, id NodeID) *sink { return &sink{id: id, eng: eng} }

func (s *sink) ID() NodeID { return s.id }
func (s *sink) Receive(p *Packet, from *Link) {
	s.packets = append(s.packets, p)
	s.times = append(s.times, s.eng.Now())
}

func dataPacket(size int) *Packet {
	return &Packet{Src: 1, Dst: 2, SrcPort: 1000, DstPort: 80, Size: uint16(size), Flags: FlagData, PayloadLen: uint16(size - 60)}
}

func TestLinkDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	src := newSink(eng, 1)
	dst := newSink(eng, 2)
	// 100 Mb/s, 20us propagation: 1500B takes 120us + 20us = 140us.
	l := NewLink(eng, src, dst, 100_000_000, 20*sim.Microsecond, 10, LayerHost)
	l.Enqueue(dataPacket(1500))
	eng.Run()
	if len(dst.packets) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.packets))
	}
	if got, want := dst.times[0], 140*sim.Microsecond; got != want {
		t.Errorf("delivery at %v, want %v", got, want)
	}
	if dst.packets[0].Hops != 1 {
		t.Errorf("hops = %d, want 1", dst.packets[0].Hops)
	}
}

func TestLinkSerialisesBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 20*sim.Microsecond, 10, LayerHost)
	l.Enqueue(dataPacket(1500))
	l.Enqueue(dataPacket(1500))
	eng.Run()
	if len(dst.packets) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(dst.packets))
	}
	// Second packet starts serialising when the first finishes (120us),
	// so it arrives at 240us + 20us.
	if got, want := dst.times[1], 260*sim.Microsecond; got != want {
		t.Errorf("second delivery at %v, want %v", got, want)
	}
}

func TestLinkDropTail(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 0, 3, LayerAgg)
	// One in the transmitter + 3 queued fit; the rest drop.
	for i := 0; i < 10; i++ {
		l.Enqueue(dataPacket(1500))
	}
	eng.Run()
	if len(dst.packets) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(dst.packets))
	}
	if l.Stats.Drops != 6 {
		t.Errorf("drops = %d, want 6", l.Stats.Drops)
	}
	if l.Stats.DropBytes != 6*1500 {
		t.Errorf("drop bytes = %d, want %d", l.Stats.DropBytes, 6*1500)
	}
}

func TestLinkFIFOOrder(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 1_000_000_000, 0, 100, LayerHost)
	for i := 0; i < 50; i++ {
		p := dataPacket(100)
		p.Seq = int64(i)
		l.Enqueue(p)
	}
	eng.Run()
	if len(dst.packets) != 50 {
		t.Fatalf("delivered %d packets, want 50", len(dst.packets))
	}
	for i, p := range dst.packets {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d: FIFO order violated", i, p.Seq)
		}
	}
}

func TestLinkQueueWrapAround(t *testing.T) {
	// Exercise the ring buffer across many fill/drain cycles.
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 1_000_000_000, 0, 4, LayerHost)
	total := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ { // 1 in transmitter + 4 queued, none drop
			p := dataPacket(100)
			p.Seq = int64(total)
			total++
			l.Enqueue(p)
		}
		eng.Run() // drain fully between rounds
	}
	if len(dst.packets) != total {
		t.Fatalf("delivered %d, want %d", len(dst.packets), total)
	}
	for i, p := range dst.packets {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d after wrap-around", i, p.Seq)
		}
	}
	if l.Stats.Drops != 0 {
		t.Errorf("drops = %d, want 0", l.Stats.Drops)
	}
}

func TestLinkUtilisationAndBusyTime(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 0, 10, LayerCore)
	for i := 0; i < 5; i++ {
		l.Enqueue(dataPacket(1500)) // 120us each
	}
	eng.Run()
	if got, want := l.Stats.BusyTime, 600*sim.Microsecond; got != want {
		t.Errorf("busy time = %v, want %v", got, want)
	}
	if got := l.Stats.Utilisation(1200 * sim.Microsecond); got != 0.5 {
		t.Errorf("utilisation = %v, want 0.5", got)
	}
	if got := l.Stats.Utilisation(0); got != 0 {
		t.Errorf("utilisation over empty interval = %v, want 0", got)
	}
}

func TestLinkECNMarking(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 0, 10, LayerAgg)
	l.ECNThreshold = 2
	for i := 0; i < 6; i++ {
		l.Enqueue(dataPacket(1500))
	}
	eng.Run()
	var marked int
	for _, p := range dst.packets {
		if p.Flags&FlagCE != 0 {
			marked++
		}
	}
	// Packet 0 transmits immediately; packets 1,2 enqueue below
	// threshold; packets 3,4,5 see queue >= 2 and get marked.
	if marked != 3 {
		t.Errorf("marked = %d, want 3", marked)
	}
}

func TestLinkMaxQueueHighWater(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 0, 10, LayerHost)
	for i := 0; i < 5; i++ {
		l.Enqueue(dataPacket(1500))
	}
	eng.Run()
	if l.Stats.MaxQueue != 4 {
		t.Errorf("max queue = %d, want 4", l.Stats.MaxQueue)
	}
}

func TestLinkInvalidConstruction(t *testing.T) {
	eng := sim.NewEngine()
	a, b := newSink(eng, 1), newSink(eng, 2)
	for _, tc := range []struct {
		rate  int64
		limit int
	}{{0, 10}, {-5, 10}, {100, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(rate=%d, limit=%d) did not panic", tc.rate, tc.limit)
				}
			}()
			NewLink(eng, a, b, tc.rate, 0, tc.limit, LayerHost)
		}()
	}
}

func TestLayerString(t *testing.T) {
	for layer, want := range map[Layer]string{
		LayerHost: "host", LayerEdge: "edge", LayerAgg: "agg", LayerCore: "core", Layer(9): "layer(9)",
	} {
		if got := layer.String(); got != want {
			t.Errorf("Layer(%d).String() = %q, want %q", layer, got, want)
		}
	}
}

func TestLinkAvgQueue(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 0, 10, LayerAgg)
	// 3 packets at t=0: one transmits (120us each), two queue.
	// Queue occupancy: 2 pkts for 120us, 1 pkt for 120us, 0 afterwards.
	for i := 0; i < 3; i++ {
		l.Enqueue(dataPacket(1500))
	}
	eng.Run()
	elapsed := eng.Now() // 360us
	wantIntegral := float64(2*120_000 + 1*120_000)
	got := l.Stats.AvgQueue(elapsed)
	want := wantIntegral / float64(elapsed)
	if got < want*0.999 || got > want*1.001 {
		t.Errorf("avg queue = %v, want %v", got, want)
	}
	if l.Stats.AvgQueue(0) != 0 {
		t.Error("AvgQueue over empty interval must be 0")
	}
}

func TestLinkDownBlackholesEverything(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	// 100 Mb/s, 50us propagation: 1500B serialises in 120us.
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 50*sim.Microsecond, 10, LayerAgg)
	// 4 packets: one serialising, three queued.
	for i := 0; i < 4; i++ {
		l.Enqueue(dataPacket(1500))
	}
	// Fail mid-serialisation of the first packet: the queue drains into
	// the blackhole, the in-transmitter packet dies at txDone, and a
	// post-failure arrival dies at enqueue.
	eng.Schedule(60*sim.Microsecond, func() {
		l.SetDown(true)
		if !l.Down() {
			t.Error("link not down after SetDown(true)")
		}
		l.Enqueue(dataPacket(1500))
	})
	eng.Run()
	if len(dst.packets) != 0 {
		t.Fatalf("delivered %d packets through a down link", len(dst.packets))
	}
	if got := l.Stats.Blackholed; got != 5 {
		t.Errorf("blackholed = %d, want 5", got)
	}
	if got := l.Stats.BlackholedBytes; got != 5*1500 {
		t.Errorf("blackholed bytes = %d, want %d", got, 5*1500)
	}
	if l.Stats.Drops != 0 {
		t.Errorf("queue drops = %d, want 0 (failure losses are blackholes)", l.Stats.Drops)
	}
}

func TestLinkDownSwallowsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	// Long propagation so the packet is in flight when the link dies:
	// serialisation ends at 120us, delivery would be at 1120us.
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 1*sim.Millisecond, 10, LayerAgg)
	l.Enqueue(dataPacket(1500))
	eng.Schedule(500*sim.Microsecond, func() { l.SetDown(true) })
	eng.Run()
	if len(dst.packets) != 0 {
		t.Fatal("in-flight packet survived the failure")
	}
	// In-flight swallows are receive-side damage: they accumulate in the
	// rx counters (owned by the destination shard under sharding) and
	// fold into Stats on demand.
	if got := l.TotalBlackholed(); got != 1 {
		t.Errorf("blackholed = %d, want 1", got)
	}
	l.FoldRx()
	if l.Stats.Blackholed != 1 {
		t.Errorf("blackholed after FoldRx = %d, want 1", l.Stats.Blackholed)
	}
	if got := l.TotalBlackholed(); got != 1 {
		t.Errorf("blackholed after FoldRx = %d, want 1 (fold must not double-count)", got)
	}
	// The bits were serialised before the failure.
	if l.Stats.TxPackets != 1 {
		t.Errorf("tx packets = %d, want 1", l.Stats.TxPackets)
	}
}

func TestLinkRepairResumesDelivery(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 20*sim.Microsecond, 10, LayerAgg)
	eng.At(0, func() { l.SetDown(true) })
	eng.At(100*sim.Microsecond, func() { l.Enqueue(dataPacket(1500)) }) // blackholes
	eng.At(1*sim.Millisecond, func() { l.SetDown(false) })
	eng.At(2*sim.Millisecond, func() { l.Enqueue(dataPacket(1500)) }) // delivered
	eng.Run()
	if len(dst.packets) != 1 {
		t.Fatalf("delivered %d packets after repair, want 1", len(dst.packets))
	}
	if l.Stats.Blackholed != 1 {
		t.Errorf("blackholed = %d, want 1", l.Stats.Blackholed)
	}
	if got, want := l.TimeDown(eng.Now()), 1*sim.Millisecond; got != want {
		t.Errorf("time down = %v, want %v", got, want)
	}
	// SetDown is idempotent.
	l.SetDown(false)
	if got, want := l.TimeDown(eng.Now()), 1*sim.Millisecond; got != want {
		t.Errorf("time down after redundant SetDown = %v, want %v", got, want)
	}
}

func TestLinkTimeDownOpenInterval(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, newSink(eng, 1), newSink(eng, 2), 100_000_000, 0, 10, LayerAgg)
	eng.At(3*sim.Millisecond, func() { l.SetDown(true) })
	eng.At(10*sim.Millisecond, func() {})
	eng.Run()
	if got, want := l.TimeDown(10*sim.Millisecond), 7*sim.Millisecond; got != want {
		t.Errorf("open-interval time down = %v, want %v", got, want)
	}
}

func TestLinkRateFactorSlowsSerialisation(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 0, 10, LayerAgg)
	l.SetRateFactor(0.5) // 50 Mb/s: 1500B now takes 240us
	l.Enqueue(dataPacket(1500))
	eng.Run()
	if got, want := dst.times[0], 240*sim.Microsecond; got != want {
		t.Errorf("degraded delivery at %v, want %v", got, want)
	}
	l.SetRateFactor(1)
	if l.Rate() != 100_000_000 {
		t.Errorf("rate after restore = %d", l.Rate())
	}
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRateFactor(%v) did not panic", bad)
				}
			}()
			l.SetRateFactor(bad)
		}()
	}
}

func TestLinkExtraDelay(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 20*sim.Microsecond, 10, LayerAgg)
	l.SetExtraDelay(100 * sim.Microsecond)
	l.Enqueue(dataPacket(1500)) // 120us tx + 120us prop
	eng.Run()
	if got, want := dst.times[0], 240*sim.Microsecond; got != want {
		t.Errorf("delayed delivery at %v, want %v", got, want)
	}
	l.SetExtraDelay(0)
	if l.PropDelay() != 20*sim.Microsecond {
		t.Errorf("prop after restore = %v", l.PropDelay())
	}
}

func TestLinkRandomLoss(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 10_000_000_000, 0, 100000, LayerAgg)
	l.SetLossRate(0.3, sim.NewRNG(42))
	const n = 10000
	for i := 0; i < n; i++ {
		l.Enqueue(dataPacket(1500))
	}
	eng.Run()
	lost := int(l.Stats.RandomDrops)
	if lost < n/4 || lost > n/3+n/10 {
		t.Errorf("random drops = %d/%d, want about 30%%", lost, n)
	}
	if len(dst.packets)+lost != n {
		t.Errorf("accounting: delivered %d + lost %d != %d", len(dst.packets), lost, n)
	}
	if l.Stats.RandomDropBytes != int64(lost)*1500 {
		t.Errorf("random drop bytes = %d", l.Stats.RandomDropBytes)
	}
	l.SetLossRate(0, nil) // disable
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetLossRate(0.5, nil) did not panic")
			}
		}()
		l.SetLossRate(0.5, nil)
	}()
}
