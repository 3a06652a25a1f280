package netem

import (
	"testing"

	"repro/internal/sim"
)

// ringModel is the reference the link's on-demand ring is fuzzed against:
// a transmitter slot plus a plain-slice FIFO, with drop-tail and ECN
// decided the way Link documents them.
type ringModel struct {
	limit, ecn int
	busy, down bool
	inflight   int64
	queue      []int64

	delivered                             []int64
	marked                                map[int64]bool
	enqueued, drops, blackholed, recycled int64
	maxQueue                              int
}

func (m *ringModel) enqueue(seq int64) {
	switch {
	case m.down:
		m.blackholed++
		m.recycled++
	case !m.busy:
		m.busy, m.inflight = true, seq
		m.enqueued++
	case len(m.queue) >= m.limit:
		m.drops++
		m.recycled++
	default:
		if m.ecn > 0 && len(m.queue) >= m.ecn {
			m.marked[seq] = true
		}
		m.queue = append(m.queue, seq)
		m.enqueued++
		m.maxQueue = max(m.maxQueue, len(m.queue))
	}
}

// txDone completes the serialisation in progress, if any.
func (m *ringModel) txDone() {
	switch {
	case !m.busy:
	case m.down:
		m.busy = false
		m.blackholed++
		m.recycled++
	default:
		m.delivered = append(m.delivered, m.inflight)
		if m.busy = len(m.queue) > 0; m.busy {
			m.inflight, m.queue = m.queue[0], m.queue[1:]
		}
	}
}

func (m *ringModel) setDown(down bool) {
	if down && !m.down {
		m.blackholed += int64(len(m.queue))
		m.recycled += int64(len(m.queue))
		m.queue = nil
	}
	m.down = down
}

// reset mirrors Link.Reset plus Engine.Reset: queued packets are recycled,
// the one on the wire dies with the engine's events, statistics restart.
func (m *ringModel) reset() {
	*m = ringModel{limit: m.limit, ecn: m.ecn, recycled: m.recycled + int64(len(m.queue)),
		delivered: m.delivered, marked: m.marked}
}

// FuzzLinkRing drives one link and the model with the same program —
// byte 0 the queue limit, byte 1 the ECN threshold, then one op per byte:
// a burst of arrivals, one serialisation time passing, the link failing
// or being repaired, a pooled-reuse Reset — and compares, after every op,
// the queue length and counters, and at the end the delivery order across
// wrap-around and growth, the CE marks and the recycle count.
func FuzzLinkRing(f *testing.F) {
	f.Add([]byte{3, 0, 0x24, 1, 1, 1, 1, 1})                     // drop at exactly limit
	f.Add([]byte{29, 5, 0x3c, 1, 0x3c, 1, 1, 0x3c, 1, 1, 1})     // growth, wrap-around, marks
	f.Add([]byte{9, 0, 0x3c, 1, 2, 0x0c, 1, 3, 0x3c, 1, 1})      // drain on failure, repair
	f.Add([]byte{17, 2, 0x3c, 1, 1, 4, 0x3c, 1, 1, 2, 4, 0x3c})  // Reset keeps working
	f.Add([]byte{39, 39, 0xfc, 0xfc, 0xfc, 1, 1, 1, 0xfc, 1, 1}) // threshold at the limit
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		m := &ringModel{limit: 1 + int(prog[0])%40, marked: make(map[int64]bool)}
		m.ecn = int(prog[1]) % (m.limit + 1)
		const txTime = 120 * sim.Microsecond // 1500 B at 100 Mb/s
		eng := sim.NewEngine()
		dst := newSink(eng, 2)
		pool := NewPacketPool()
		l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 0, m.limit, LayerEdge)
		l.ECNThreshold = m.ecn
		l.SetPool(pool)
		var seq int64
		for _, op := range prog[2:] {
			switch op & 3 {
			case 0: // burst of 1..64 arrivals
				for n := 1 + int(op>>2); n > 0; n-- {
					seq++
					p := dataPacket(1500)
					p.Seq = seq
					l.Enqueue(p)
					m.enqueue(seq)
				}
			case 1:
				eng.RunUntil(eng.Now() + txTime)
				m.txDone()
			case 2:
				down := op&4 == 0
				l.SetDown(down)
				m.setDown(down)
			case 3:
				l.Reset()
				eng.Reset()
				m.reset()
			}
			if l.count != len(m.queue) || l.Stats.Enqueued != m.enqueued || l.Stats.Drops != m.drops ||
				l.Stats.Blackholed != m.blackholed || l.Stats.MaxQueue != m.maxQueue {
				t.Fatalf("after op %#x: link queue %d stats %+v, model queue %d %+v", op, l.count, l.Stats, len(m.queue), *m)
			}
		}
		if pool.Recycled != m.recycled {
			t.Errorf("recycled %d packets, model %d", pool.Recycled, m.recycled)
		}
		if len(dst.packets) != len(m.delivered) {
			t.Fatalf("delivered %d packets, model %d", len(dst.packets), len(m.delivered))
		}
		for i, p := range dst.packets {
			if p.Seq != m.delivered[i] {
				t.Fatalf("delivery %d is seq %d, model %d", i, p.Seq, m.delivered[i])
			}
			if ce := p.Flags&FlagCE != 0; ce != m.marked[p.Seq] {
				t.Errorf("seq %d CE = %v, model %v", p.Seq, ce, m.marked[p.Seq])
			}
		}
	})
}

// TestLinkQueuedHopAllocationFree: once a link's ring has grown to the
// occupancy its traffic reaches, queueing through it allocates nothing —
// including after a failure drained it and a Reset recycled it.
func TestLinkQueuedHopAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	dst := &recycler{pool: pool}
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 20*sim.Microsecond, 30, LayerEdge)
	l.SetPool(pool)
	burst := func() {
		for i := 0; i < 25; i++ {
			p := pool.Get()
			p.Size = 1500
			l.Enqueue(p)
		}
		eng.Run()
	}
	burst()
	burst()
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Errorf("a warm 25-packet burst allocates %v objects, want 0", n)
	}
	grown := cap(l.queue)
	for i := 0; i < 25; i++ {
		l.Enqueue(pool.Get())
	}
	l.SetDown(true)
	l.Reset()
	eng.Reset()
	if cap(l.queue) != grown || l.count != 0 {
		t.Errorf("after drain and Reset: capacity %d (was %d), length %d", cap(l.queue), grown, l.count)
	}
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Errorf("a burst after Reset allocates %v objects, want 0", n)
	}
}

// recycler is a terminal node that hands every packet back to the pool.
type recycler struct{ pool *PacketPool }

func (r *recycler) ID() NodeID                 { return 2 }
func (r *recycler) Receive(p *Packet, _ *Link) { r.pool.Put(p) }

// TestLinkSerialisationMemoFollowsRate: the per-size serialisation memo
// must not outlive the rate it was computed at. The packet on the wire
// when the rate changes finishes at the old rate; the next one — same
// size, so a memo hit if the memo survived — goes at the new rate, and
// the same again after Reset restores the built rate.
func TestLinkSerialisationMemoFollowsRate(t *testing.T) {
	eng := sim.NewEngine()
	dst := newSink(eng, 2)
	l := NewLink(eng, newSink(eng, 1), dst, 100_000_000, 0, 10, LayerAgg)
	l.Enqueue(dataPacket(1500)) // 120us at the built rate, and memoised
	l.Enqueue(dataPacket(1500))
	l.Enqueue(dataPacket(60))
	eng.RunUntil(50 * sim.Microsecond)
	l.SetRateFactor(0.5) // first packet is mid-serialisation
	eng.Run()
	want := []sim.Time{120 * sim.Microsecond, 360 * sim.Microsecond, 369600}
	for i, at := range want {
		if dst.times[i] != at {
			t.Errorf("packet %d delivered at %v, want %v", i, dst.times[i], at)
		}
	}
	l.Reset()
	eng.Reset()
	l.Enqueue(dataPacket(1500))
	eng.Run()
	if got := dst.times[3]; got != 120*sim.Microsecond {
		t.Errorf("after Reset: delivered at %v, want 120us", got)
	}
}
