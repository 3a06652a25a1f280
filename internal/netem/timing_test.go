package netem

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// timingPkt is one packet as the timing model sees it.
type timingPkt struct {
	seq      int64
	size     int
	ce       bool
	enq      sim.Time // when it joined the queue
	dep, arr sim.Time // departure (last bit serialised) and arrival
}

// timingModel is Link's timing written as a closed form over one packet
// at a time, the reference FuzzLinkTiming checks the link against:
//   - a packet starts serialising at S = max(enqueue, previous departure)
//     and departs at S + size/rate, with the rate in force at S;
//   - it arrives at departure + the prop in force at departure;
//   - drop-tail and ECN are judged on the queue length at enqueue (the
//     serialising packet not counted; an idle link never drops or marks);
//   - a down link blackholes arrivals at enqueue, its queue at failure,
//     the serialising packet at departure and a propagating packet at
//     arrival, each only if the link is down at that moment.
//
// Program ops at an instant come before the link's own events at that
// instant: the fuzz schedules every op before the run starts, and the
// engine breaks ties in scheduling order.
type timingModel struct {
	limit, ecn int
	rate       int64
	prop       sim.Time
	down       bool
	loss       float64
	rng        *sim.RNG

	cur     *timingPkt   // serialising, or nil when idle
	queue   []*timingPkt // waiting, in FIFO order
	flight  []*timingPkt // propagating, in departure order
	arrived []*timingPkt // delivered, in arrival order

	enqueued, drops, randomDrops, blackholed, txPackets int64
	busyTime                                            sim.Time
	queueIntegral                                       int64
	maxQueue                                            int
}

// start puts p on the wire at s.
func (m *timingModel) start(p *timingPkt, s sim.Time) {
	tx := sim.TransmissionTime(p.size, m.rate)
	p.dep = s + tx
	m.busyTime += tx
	m.cur = p
}

// advance fires the link's own events strictly before t, in time order.
// Arrivals tie before a departure: each was scheduled at an earlier
// departure, before the serialising packet's own departure was.
func (m *timingModel) advance(t sim.Time) {
	for {
		next := -1
		for i, p := range m.flight {
			if p.arr < t && (next < 0 || p.arr < m.flight[next].arr) {
				next = i
			}
		}
		if next >= 0 && (m.cur == nil || m.flight[next].arr <= m.cur.dep) {
			p := m.flight[next]
			m.flight = append(m.flight[:next], m.flight[next+1:]...)
			if m.down {
				m.blackholed++
			} else {
				m.arrived = append(m.arrived, p)
			}
			continue
		}
		if m.cur == nil || m.cur.dep >= t {
			return
		}
		p, d := m.cur, m.cur.dep
		m.cur = nil
		if m.down {
			m.blackholed++
			continue
		}
		m.txPackets++
		p.arr = d + m.prop
		m.flight = append(m.flight, p)
		if len(m.queue) > 0 {
			q := m.queue[0]
			m.queue = m.queue[1:]
			m.queueIntegral += int64(d - q.enq)
			m.start(q, d)
		}
	}
}

func (m *timingModel) enqueue(p *timingPkt, t sim.Time) {
	switch {
	case m.down:
		m.blackholed++
	case m.loss > 0 && m.rng.Float64() < m.loss:
		m.randomDrops++
	case m.cur == nil:
		m.enqueued++
		m.start(p, t)
	case len(m.queue) >= m.limit:
		m.drops++
	default:
		p.ce = m.ecn > 0 && len(m.queue) >= m.ecn
		p.enq = t
		m.queue = append(m.queue, p)
		m.enqueued++
		m.maxQueue = max(m.maxQueue, len(m.queue))
	}
}

func (m *timingModel) setDown(down bool, t sim.Time) {
	if down && !m.down {
		for _, q := range m.queue {
			m.blackholed++
			m.queueIntegral += int64(t - q.enq)
		}
		m.queue = nil
	}
	m.down = down
}

// chainFlip is one route-dead transition of an A→B member in chain mode.
type chainFlip struct {
	at     sim.Time
	member int
	dead   bool
}

// The two-switch chain behind the fuzzed link in chain mode: host → the
// link → switch A → {ab[0], ab[1]} → switch B → bh → host. The chain's
// hops run at chainRate and never change. The fuzzed link delivers at
// most one packet per 4.8 µs (60 B at its built 100 Mb/s; its prop is
// fixed in chain mode), and a chain hop serialises any packet in at most
// 1.2 µs, so no chain hop ever holds a queue and every delivery is a
// closed form of its arrival at A. ab's two propagation delays differ, so
// an arrival time also says which member carried the packet.
const chainRate = 10_000_000_000

var (
	chainAB = [2]sim.Time{10 * sim.Microsecond, 10*sim.Microsecond + 400}
	chainBH = 2 * sim.Microsecond
)

// chainSeed is switch A's ECMP hash seed.
const chainSeed = 0x5eed

// fuzzPacket builds the program's packet seq. Its source port makes it a
// flow of its own, so ECMP spreads the program's packets over A's members.
func fuzzPacket(seq int64, size int) *Packet {
	p := dataPacket(size)
	p.Seq = seq
	p.SrcPort = uint16(seq)
	return p
}

// chainModel composes the chain behind the link's model: a packet the
// link delivers to A at a is forwarded on the member its flow hash picks
// among the members alive for routing at a (flips at a itself included:
// program ops precede the link's events), or dropped as NoRoute when none
// is; it reaches the host at a + size/chainRate + that member's prop +
// size/chainRate + chainBH, its third hop. It rewrites each delivered
// packet's arr, and returns the deliveries, the NoRoute count and each
// member's packet count.
func chainModel(arrived []*timingPkt, flips []chainFlip) (out []*timingPkt, noRoute int64, carried [2]int64) {
	var dead [2]bool
	j := 0
	for _, p := range arrived {
		for ; j < len(flips) && flips[j].at <= p.arr; j++ {
			dead[flips[j].member] = flips[j].dead
		}
		var live []int
		for k := range dead {
			if !dead[k] {
				live = append(live, k)
			}
		}
		if len(live) == 0 {
			noRoute++
			continue
		}
		k := live[fuzzPacket(p.seq, p.size).FlowHash(chainSeed)%uint32(len(live))]
		carried[k]++
		tx := sim.TransmissionTime(p.size, chainRate)
		p.arr += tx + chainAB[k] + tx + chainBH
		out = append(out, p)
	}
	return out, noRoute, carried
}

// Fuzz program tables: packet sizes, rate factors, loss rates and built
// propagation delays. Op gaps are multiples of 2 µs, so
// ops often land exactly on a departure or an arrival (1,500 B take
// 120 µs at the built 100 Mb/s).
var (
	ftSizes   = []int{60, 1500, 576, 1460}
	ftFactors = []float64{1, 0.5, 0.3, 0.1, 0.77}
	ftLosses  = []float64{0, 0.2, 0.6}
	ftProps   = []sim.Time{0, sim.Microsecond, 20 * sim.Microsecond, 150 * sim.Microsecond}
)

// FuzzLinkTiming runs one link and the closed-form timing model on the
// same timed program and compares every arrival's time, packet, CE mark
// and hop count, every drop class, TxPackets, BusyTime, QueueIntegral,
// MaxQueue and the blackhole and recycle counts. Bytes 0-2 pick the queue
// limit, the ECN threshold and the built propagation delay (low two bits
// of byte 2); then each op is a pair: a gap of 2 µs units after the
// previous op, and an action — the low three bits choose a burst of
// arrivals (0-2), a failure (3), a repair (4), a rate factor (5), nothing
// (6) or a loss rate (7), and the high bits its size, count or table
// entry.
//
// With bit 2 of byte 2 set the link delivers into the two-switch chain
// (see chainAB) instead of straight to the host, and op 6 flips an A→B
// member's route-dead state — bit 3 picks the member, bit 4 kills it — so a built set loses members, all of them and gets them back. Then
// chainModel's composition, the switches' NoRoute and Forwarded counts
// and each chain hop's TxPackets are checked as well.
func FuzzLinkTiming(f *testing.F) {
	f.Add([]byte{8, 0, 2, 0, 0x38, 30, 0x0d, 0, 0x28})            // rate cut mid-serialisation
	f.Add([]byte{8, 0, 3, 0, 0x38, 20, 0x16, 60, 0x0e, 0, 0x38})  // packets queue across two no-op ops
	f.Add([]byte{8, 0, 3, 0, 0x38, 62, 0x03, 200, 0x04, 0, 0x30}) // failure while propagating, repair
	f.Add([]byte{2, 1, 1, 0, 0x38, 0, 0x38, 60, 0x08, 0, 0x30})   // drop-tail, ECN, ties with departures
	f.Add([]byte{12, 3, 2, 0, 0x0f, 0, 0x38, 5, 0x38, 90, 0x07})  // random loss, then off
	f.Add([]byte{4, 2, 0, 0, 0x38, 60, 0x03, 0, 0x04, 0, 0x20, 30, 0x0d, 0, 0x38, 60, 0x03, 100, 0x04})
	// Chain: member 0 dies, then member 1 (the built set is empty: NoRoute
	// at A), then member 0 returns.
	f.Add([]byte{8, 0, 5, 0, 0x38, 30, 0x16, 0, 0x38, 100, 0x1e, 0, 0x38, 200, 0x06, 0, 0x38})
	// Chain: kill, revive and kill the other between arrivals 4.8 µs apart.
	f.Add([]byte{15, 0, 4, 0, 0x18, 1, 0x16, 1, 0x06, 1, 0x1e, 1, 0x18, 2, 0x0e, 1, 0x16, 0, 0x18, 3, 0x1e})
	// Chain: rate cut, failure and loss on the link while members flap.
	f.Add([]byte{6, 2, 7, 0, 0x38, 10, 0x0d, 20, 0x16, 0, 0x30, 40, 0x03, 10, 0x04, 5, 0x0f, 0, 0x38, 30, 0x06, 0, 0x28})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 3 {
			return
		}
		const baseRate = 100_000_000
		m := &timingModel{limit: 1 + int(prog[0])%16, rate: baseRate}
		m.ecn = int(prog[1]) % (m.limit + 1)
		m.prop = ftProps[int(prog[2])%len(ftProps)]
		m.rng = sim.NewRNG(7)
		chain := prog[2]&4 != 0

		eng := sim.NewEngine()
		dst := newSink(eng, 2)
		pool := NewPacketPool()
		var into Node = dst
		var swA, swB *Switch
		var ab [2]*Link
		var bh *Link
		var flips []chainFlip
		if chain {
			var routes RouteState
			swA, swB = NewSwitch(eng, 10, chainSeed), NewSwitch(eng, 11, 0)
			for k := range ab {
				ab[k] = NewLink(eng, swA, swB, chainRate, chainAB[k], 1, LayerAgg)
				ab[k].Routes = &routes
			}
			bh = NewLink(eng, swB, dst, chainRate, chainBH, 1, LayerEdge)
			swA.SetRow([][]*Link{ab[:]}, make([]int32, 3), &routes)
			swB.SetRow([][]*Link{{bh}}, make([]int32, 3), &routes)
			for _, n := range []interface{ SetPool(*PacketPool) }{swA, swB, ab[0], ab[1], bh} {
				n.SetPool(pool)
			}
			into = swA
		}
		l := NewLink(eng, newSink(eng, 1), into, baseRate, m.prop, m.limit, LayerEdge)
		l.ECNThreshold = m.ecn
		l.SetPool(pool)
		linkRNG := sim.NewRNG(7)

		// Every op is scheduled before the run, so at any instant the
		// program's ops fire before the link's own events.
		var at sim.Time
		var seq int64
		for i := 3; i+1 < len(prog); i += 2 {
			at += sim.Time(prog[i]) * 2 * sim.Microsecond
			a, t0 := prog[i+1], at
			var op func()
			switch a & 7 {
			case 0, 1, 2:
				size := ftSizes[int(a>>5)&3]
				n := 1 + int(a>>3)&3
				first := seq + 1
				seq += int64(n)
				op = func() {
					for s := first; s < first+int64(n); s++ {
						m.advance(t0)
						m.enqueue(&timingPkt{seq: s, size: size}, t0)
						l.Enqueue(fuzzPacket(s, size))
					}
				}
			case 3, 4:
				down := a&7 == 3
				op = func() { m.advance(t0); m.setDown(down, t0); l.SetDown(down) }
			case 5:
				factor := ftFactors[int(a>>3)%len(ftFactors)]
				op = func() {
					m.advance(t0)
					m.rate = max(1, int64(float64(baseRate)*factor))
					l.SetRateFactor(factor)
				}
			case 6:
				if !chain {
					continue
				}
				fl := chainFlip{at: t0, member: int(a>>3) & 1, dead: a&0x10 != 0}
				flips = append(flips, fl)
				op = func() { ab[fl.member].SetRouteDead(fl.dead) }
			case 7:
				loss := ftLosses[int(a>>3)%len(ftLosses)]
				op = func() {
					m.advance(t0)
					m.loss = loss
					if loss > 0 {
						l.SetLossRate(loss, linkRNG)
					} else {
						l.SetLossRate(0, nil)
					}
				}
			}
			eng.At(t0, op)
		}
		eng.Run()
		m.advance(math.MaxInt64)

		arrived, hops := m.arrived, 1
		var noRoute int64
		var carried [2]int64
		if chain {
			arrived, noRoute, carried = chainModel(m.arrived, flips)
			hops = 3
		}
		if len(dst.packets) != len(arrived) {
			t.Fatalf("%d packets arrived, model %d", len(dst.packets), len(arrived))
		}
		for i, p := range dst.packets {
			want := arrived[i]
			if p.Seq != want.seq || dst.times[i] != want.arr {
				t.Fatalf("arrival %d: seq %d at %v, model seq %d at %v", i, p.Seq, dst.times[i], want.seq, want.arr)
			}
			if ce := p.Flags&FlagCE != 0; ce != want.ce {
				t.Errorf("seq %d: CE %v, model %v", p.Seq, ce, want.ce)
			}
			if int(p.Hops) != hops {
				t.Errorf("seq %d: %d hops, want %d", p.Seq, p.Hops, hops)
			}
		}
		type count struct {
			name      string
			got, want int64
		}
		s := &l.Stats
		counts := []count{
			{"Enqueued", s.Enqueued, m.enqueued},
			{"Drops", s.Drops, m.drops},
			{"RandomDrops", s.RandomDrops, m.randomDrops},
			{"Blackholed", l.TotalBlackholed(), m.blackholed},
			{"TxPackets", s.TxPackets, m.txPackets},
			{"BusyTime", int64(s.BusyTime), int64(m.busyTime)},
			{"QueueIntegral", s.QueueIntegral, m.queueIntegral},
			{"MaxQueue", int64(s.MaxQueue), int64(m.maxQueue)},
			{"Recycled", pool.Recycled, m.drops + m.randomDrops + m.blackholed + noRoute},
		}
		if chain {
			delivered := int64(len(arrived))
			counts = append(counts, []count{
				{"A NoRoute", swA.NoRoute, noRoute},
				{"A Forwarded", swA.Forwarded, carried[0] + carried[1]},
				{"B Forwarded", swB.Forwarded, delivered},
				{"ab[0] TxPackets", ab[0].Stats.TxPackets, carried[0]},
				{"ab[1] TxPackets", ab[1].Stats.TxPackets, carried[1]},
				{"bh TxPackets", bh.Stats.TxPackets, delivered},
				{"chain MaxQueue", int64(ab[0].Stats.MaxQueue + ab[1].Stats.MaxQueue + bh.Stats.MaxQueue), 0},
			}...)
		}
		for _, c := range counts {
			if c.got != c.want {
				t.Errorf("%s = %d, model %d", c.name, c.got, c.want)
			}
		}
	})
}
