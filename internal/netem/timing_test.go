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
	baseProp   sim.Time
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

// Fuzz program tables: packet sizes, rate factors, extra delays, loss
// rates and built propagation delays. Op gaps are multiples of 2 µs, so
// ops often land exactly on a departure or an arrival (1,500 B take
// 120 µs at the built 100 Mb/s).
var (
	ftSizes   = []int{60, 1500, 576, 1460}
	ftFactors = []float64{1, 0.5, 0.3, 0.1, 0.77}
	ftExtras  = []sim.Time{0, 3 * sim.Microsecond, 40 * sim.Microsecond, 250 * sim.Microsecond}
	ftLosses  = []float64{0, 0.2, 0.6}
	ftProps   = []sim.Time{0, sim.Microsecond, 20 * sim.Microsecond, 150 * sim.Microsecond}
)

// FuzzLinkTiming runs one link and the closed-form timing model on the
// same timed program and compares every arrival's time, packet and CE
// mark, every drop class, TxPackets, BusyTime, QueueIntegral, MaxQueue
// and the blackhole and recycle counts. Bytes 0-2 pick the queue limit,
// the ECN threshold and the built propagation delay; then each op is a
// pair: a gap of 2 µs units after the previous op, and an action — the
// low three bits choose a burst of arrivals (0-2), a failure (3), a
// repair (4), a rate factor (5), an extra delay (6) or a loss rate (7),
// and the high bits its size, count or table entry.
func FuzzLinkTiming(f *testing.F) {
	f.Add([]byte{8, 0, 2, 0, 0x38, 30, 0x0d, 0, 0x28})            // rate cut mid-serialisation
	f.Add([]byte{8, 0, 3, 0, 0x38, 20, 0x16, 60, 0x0e, 0, 0x38})  // delay changes while packets queue
	f.Add([]byte{8, 0, 3, 0, 0x38, 62, 0x03, 200, 0x04, 0, 0x30}) // failure while propagating, repair
	f.Add([]byte{2, 1, 1, 0, 0x38, 0, 0x38, 60, 0x08, 0, 0x30})   // drop-tail, ECN, ties with departures
	f.Add([]byte{12, 3, 2, 0, 0x0f, 0, 0x38, 5, 0x38, 90, 0x07})  // random loss, then off
	f.Add([]byte{4, 2, 0, 0, 0x38, 60, 0x03, 0, 0x04, 0, 0x20, 30, 0x0d, 0, 0x38, 60, 0x03, 100, 0x04})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 3 {
			return
		}
		const baseRate = 100_000_000
		m := &timingModel{limit: 1 + int(prog[0])%16, rate: baseRate}
		m.ecn = int(prog[1]) % (m.limit + 1)
		m.baseProp = ftProps[int(prog[2])%len(ftProps)]
		m.prop = m.baseProp
		m.rng = sim.NewRNG(7)

		eng := sim.NewEngine()
		dst := newSink(eng, 2)
		pool := NewPacketPool()
		l := NewLink(eng, newSink(eng, 1), dst, baseRate, m.baseProp, m.limit, LayerEdge)
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
						p := dataPacket(size)
						p.Seq = s
						l.Enqueue(p)
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
				extra := ftExtras[int(a>>3)%len(ftExtras)]
				op = func() { m.advance(t0); m.prop = m.baseProp + extra; l.SetExtraDelay(extra) }
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

		if len(dst.packets) != len(m.arrived) {
			t.Fatalf("%d packets arrived, model %d", len(dst.packets), len(m.arrived))
		}
		for i, p := range dst.packets {
			want := m.arrived[i]
			if p.Seq != want.seq || dst.times[i] != want.arr {
				t.Fatalf("arrival %d: seq %d at %v, model seq %d at %v", i, p.Seq, dst.times[i], want.seq, want.arr)
			}
			if ce := p.Flags&FlagCE != 0; ce != want.ce {
				t.Errorf("seq %d: CE %v, model %v", p.Seq, ce, want.ce)
			}
		}
		s := &l.Stats
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"Enqueued", s.Enqueued, m.enqueued},
			{"Drops", s.Drops, m.drops},
			{"RandomDrops", s.RandomDrops, m.randomDrops},
			{"Blackholed", l.TotalBlackholed(), m.blackholed},
			{"TxPackets", s.TxPackets, m.txPackets},
			{"BusyTime", int64(s.BusyTime), int64(m.busyTime)},
			{"QueueIntegral", s.QueueIntegral, m.queueIntegral},
			{"MaxQueue", int64(s.MaxQueue), int64(m.maxQueue)},
			{"Recycled", pool.Recycled, m.drops + m.randomDrops + m.blackholed},
		} {
			if c.got != c.want {
				t.Errorf("%s = %d, model %d", c.name, c.got, c.want)
			}
		}
	})
}
