package netem

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Layer classifies where in the topology a link sits, for per-layer loss
// accounting (the paper reports loss rates at the core and aggregation
// layers separately).
type Layer uint8

// Link layers, named from the perspective of the data-centre hierarchy.
const (
	LayerHost Layer = iota // host NIC -> edge switch (and reverse)
	LayerEdge              // edge <-> aggregation
	LayerAgg               // aggregation <-> core
	LayerCore              // core (only used by exotic topologies)
)

// String returns the conventional name of the layer.
func (l Layer) String() string {
	switch l {
	case LayerHost:
		return "host"
	case LayerEdge:
		return "edge"
	case LayerAgg:
		return "agg"
	case LayerCore:
		return "core"
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// Node is anything that can terminate a link: a Host or a Switch.
type Node interface {
	ID() NodeID
	// Receive is invoked by a link when a packet finishes propagating.
	Receive(pkt *Packet, from *Link)
}

// LinkStats accumulates per-link counters used by the measurement layer.
type LinkStats struct {
	TxPackets int64    // packets fully serialised onto the wire
	TxBytes   int64    // bytes fully serialised onto the wire
	Enqueued  int64    // packets accepted into the queue or transmitter
	Drops     int64    // packets dropped at enqueue (queue full)
	DropBytes int64    // bytes dropped
	BusyTime  sim.Time // cumulative serialisation time (for utilisation)
	MaxQueue  int      // high-water mark of queue length (packets)

	// Blackholed counts packets swallowed by the link while it was down:
	// new arrivals, queued packets drained at failure time, and in-flight
	// packets whose delivery was suppressed. These are the paper's
	// robustness story — losses no transport signal announces except by
	// silence (duplicate ACKs never come; only timers fire).
	Blackholed      int64
	BlackholedBytes int64

	// RandomDrops counts packets dropped by injected random loss (link
	// degradation), as opposed to queue overflow.
	RandomDrops     int64
	RandomDropBytes int64

	// DownTime accumulates completed down intervals; see Link.TimeDown
	// for the live total including a still-open failure.
	DownTime  sim.Time
	downSince sim.Time

	// QueueIntegral accumulates queue length x time (packet·ns), for
	// time-averaged occupancy; lastQChange is internal bookkeeping.
	QueueIntegral int64
	lastQChange   sim.Time
}

// AvgQueue returns the time-averaged queue length in packets over the
// interval [0, elapsed].
func (s *LinkStats) AvgQueue(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.QueueIntegral) / float64(elapsed)
}

// rxScheduler is what a link needs of whatever realises its deliveries:
// the destination's *sim.Engine, or a cross-shard outbox buffering them
// for the destination shard (which may return a nil *sim.Event).
type rxScheduler interface {
	Now() sim.Time
	AtArg(t sim.Time, fn func(any), arg any) *sim.Event
}

// Link is a unidirectional point-to-point link with a drop-tail FIFO
// output queue and store-and-forward transmission: a packet occupies the
// transmitter for size/bandwidth, then arrives at the destination after
// the propagation delay. A full-duplex cable is modelled as two Links.
type Link struct {
	eng  *sim.Engine
	src  Node
	dst  Node
	rate int64    // effective bits per second (baseRate scaled by degradation)
	prop sim.Time // effective propagation delay (baseProp + extra)

	baseRate int64
	baseProp sim.Time

	// The queue is a power-of-two ring that starts empty and doubles on
	// demand (see push): most links never hold more than a few packets, so
	// capacity follows occupancy. Admission (drop-tail, ECN) is decided on
	// count against limit, never on the ring's size.
	limit int // queue capacity in packets (not counting the in-flight one)
	queue []*Packet
	head  int // ring-buffer head index
	count int // packets in queue
	busy  bool

	// txSize/txTime memoise the serialisation time of the last two packet
	// sizes at the current rate (data and ACK cover nearly all traffic),
	// sparing a 64-bit divide per hop. Size 0 takes 0: zero is empty.
	txSize [2]uint16
	txTime [2]sim.Time

	// Fault state. down is the data plane: a down link blackholes
	// everything (in-flight, queued, and newly enqueued packets).
	// routeDead is the control plane: once set, forwarding rows exclude
	// the link from ECMP sets. The two are deliberately separate — the window
	// between a link going down and routing noticing it (the
	// reconvergence delay) is where failures hurt, and the faults
	// subsystem drives them independently.
	down      bool
	routeDead bool

	// lossRate, when positive, drops each enqueued packet with this
	// probability (random-loss degradation); draws come from lossRNG.
	lossRate float64
	lossRNG  *sim.RNG

	// ECNThreshold, when positive, marks packets with CE at enqueue if
	// the instantaneous queue length is at or above the threshold
	// (DCTCP-style marking). Zero disables marking.
	ECNThreshold int

	// Routes, when non-nil, is the network-wide tally SetRouteDead keeps
	// in step so forwarding rows can skip liveness filtering on a healthy
	// fabric.
	// Topology builders set it at construction, before any fault.
	Routes *RouteState

	layer Layer

	// pool recycles packets that terminate on this link (queue drops,
	// random loss, blackholes); nil disables recycling.
	pool *PacketPool

	// rec, when non-nil, receives structured trace events (enqueues,
	// marks, drops, link state). Every trace point is guarded by a nil
	// check so the disabled cost is one predictable branch.
	rec *trace.Recorder

	// Receive-side wiring. On a sequential engine rxSched is the same
	// engine, rxPool the same pool and rxRec the same recorder as the tx
	// side, and the rx counters stay zero-folded. On a shard boundary the
	// tx side (Enqueue/txDone and everything above) runs on the source
	// node's shard while delivery runs on the destination's: rxSched is
	// then the cross-shard outbox, and the rx-side blackhole accounting
	// goes into rxBlackholed/rxBlackholedBytes so the two threads never
	// write the same counters. FoldRx merges them at a barrier.
	rxSched           rxScheduler
	rxPool            *PacketPool
	rxRec             *trace.Recorder
	rxBlackholed      int64
	rxBlackholedBytes int64

	// txDoneFn and deliverFn are the long-lived engine callbacks for the
	// two per-packet events of a transmission, created once so the hot
	// path schedules with ScheduleArg instead of allocating a closure
	// per packet.
	txDoneFn  func(any)
	deliverFn func(any)

	Stats LinkStats
}

// NewLink creates a link from src to dst. rate is in bits/second, prop is
// the propagation delay, and limit is the queue capacity in packets.
func NewLink(eng *sim.Engine, src, dst Node, rate int64, prop sim.Time, limit int, layer Layer) *Link {
	return new(Link).Init(eng, src, dst, rate, prop, limit, layer)
}

// Init is NewLink in place, for builders that allocate a fabric's links
// as one slab. l must be zero and must not move afterwards: its engine
// callbacks capture its address.
func (l *Link) Init(eng *sim.Engine, src, dst Node, rate int64, prop sim.Time, limit int, layer Layer) *Link {
	if rate <= 0 {
		panic("netem: link rate must be positive")
	}
	if limit < 1 {
		panic("netem: queue limit must be at least 1")
	}
	*l = Link{
		eng:      eng,
		src:      src,
		dst:      dst,
		rate:     rate,
		prop:     prop,
		baseRate: rate,
		baseProp: prop,
		limit:    limit,
		layer:    layer,
		rxSched:  eng,
	}
	l.txDoneFn = func(a any) { l.txDone(a.(*Packet)) }
	l.deliverFn = func(a any) { l.deliver(a.(*Packet)) }
	return l
}

// SetPool installs the packet free list the link recycles dropped and
// blackholed packets into. Topology builders wire every link of a
// network to one shared pool; nil (the default) disables recycling.
// Both sides share it until Rebind splits them.
func (l *Link) SetPool(pp *PacketPool) { l.pool, l.rxPool = pp, pp }

// SetRecorder installs (or, with nil, removes) the structured event
// recorder on both sides of the link. The run harness re-installs per
// run, so a pooled instance never keeps recording into a previous run's
// recorder.
func (l *Link) SetRecorder(r *trace.Recorder) { l.rec, l.rxRec = r, r }

// SetRecorders installs separate recorders for the transmit and receive
// sides, used by sharded runs where the two sides execute on different
// shard threads and must append to different per-shard recorders.
func (l *Link) SetRecorders(tx, rx *trace.Recorder) { l.rec, l.rxRec = tx, rx }

// Rebind repoints the link's execution wiring for a sharded fabric: the
// transmit side (enqueue, serialisation, queue accounting) runs on
// txEng with txPool, while delivery is scheduled through rxSched (the
// destination shard's engine, or a cross-shard outbox) and recycles
// into rxPool. Passing the same engine and pool on both sides restores
// sequential behaviour.
func (l *Link) Rebind(txEng *sim.Engine, rxSched rxScheduler, txPool, rxPool *PacketPool) {
	l.eng = txEng
	l.rxSched = rxSched
	l.pool = txPool
	l.rxPool = rxPool
}

// FoldRx merges the receive-side blackhole counters into Stats. The
// coordinator calls it at a barrier (both shard threads paused) before
// reading Stats for reports or snapshots; on a sequential link it is a
// no-op after the first call since the rx counters stay zero.
func (l *Link) FoldRx() {
	l.Stats.Blackholed += l.rxBlackholed
	l.Stats.BlackholedBytes += l.rxBlackholedBytes
	l.rxBlackholed = 0
	l.rxBlackholedBytes = 0
}

// TotalBlackholed returns the blackholed-packet count across both sides
// without folding, for mid-run snapshots that must not mutate counters
// owned by a paused shard thread.
func (l *Link) TotalBlackholed() int64 { return l.Stats.Blackholed + l.rxBlackholed }

// traceIDs returns the link's endpoints as trace identity fields.
func (l *Link) traceIDs() (int32, int32) { return int32(l.src.ID()), int32(l.dst.ID()) }

// Src returns the sending node.
func (l *Link) Src() Node { return l.src }

// Dst returns the receiving node.
func (l *Link) Dst() Node { return l.dst }

// Layer returns the link's topology layer.
func (l *Link) Layer() Layer { return l.layer }

// Rate returns the link bandwidth in bits per second.
func (l *Link) Rate() int64 { return l.rate }

// PropDelay returns the propagation delay.
func (l *Link) PropDelay() sim.Time { return l.prop }

// Down reports whether the link is failed at the data plane.
func (l *Link) Down() bool { return l.down }

// RouteDead reports whether forwarding rows exclude the link from ECMP
// next-hop sets (set after the reconvergence delay following a failure).
func (l *Link) RouteDead() bool { return l.routeDead }

// SetRouteDead marks the link dead (or alive again) for routing.
// Forwarding rows filter it out of their as-built sets; the data plane is
// unaffected.
func (l *Link) SetRouteDead(dead bool) {
	if dead == l.routeDead {
		return
	}
	l.routeDead = dead
	if rs := l.Routes; rs != nil {
		rs.epoch++
		if dead {
			rs.dead++
		} else {
			rs.dead--
		}
	}
}

// SetDown fails or restores the link at the data plane. Failing a link
// blackholes its queued packets immediately (the in-flight one and any
// propagating packets are swallowed when their events fire) and makes
// Enqueue blackhole new arrivals; restoring re-enables transmission.
// Down time is accumulated in Stats for time-in-failure reporting.
func (l *Link) SetDown(down bool) {
	if down == l.down {
		return
	}
	now := l.eng.Now()
	if l.rec != nil {
		kind := trace.KindLinkUp
		if down {
			kind = trace.KindLinkDown
		}
		src, dst := l.traceIDs()
		l.rec.Record(now, kind, 0, -1, src, dst, int64(l.count), 0)
	}
	if down {
		l.down = true
		l.Stats.downSince = now
		// Drain the queue: everything buffered on a dead port is lost.
		if l.count > 0 {
			l.accountQueue()
			for l.count > 0 {
				l.blackhole(l.pop())
			}
		}
		return
	}
	l.down = false
	l.Stats.DownTime += now - l.Stats.downSince
}

// TimeDown returns the total time the link has spent failed up to now,
// including a still-open failure interval.
func (l *Link) TimeDown(now sim.Time) sim.Time {
	d := l.Stats.DownTime
	if l.down && now > l.Stats.downSince {
		d += now - l.Stats.downSince
	}
	return d
}

// SetRateFactor scales the link bandwidth to factor times its built rate
// (capacity degradation). factor 1 restores full capacity. The packet
// currently serialising finishes at the old rate; subsequent packets use
// the new one. Factors outside (0, 1], NaN included, panic: a fault cannot
// add capacity.
func (l *Link) SetRateFactor(factor float64) {
	if !(factor > 0 && factor <= 1) {
		panic(fmt.Sprintf("netem: rate factor %v out of (0, 1]", factor))
	}
	r := int64(float64(l.baseRate) * factor)
	if r < 1 {
		r = 1
	}
	l.rate = r
	l.txSize, l.txTime = [2]uint16{}, [2]sim.Time{}
}

// SetExtraDelay adds extra propagation delay on top of the built delay
// (path degradation). Zero restores the built delay.
func (l *Link) SetExtraDelay(extra sim.Time) {
	if extra < 0 {
		panic("netem: negative extra delay")
	}
	l.prop = l.baseProp + extra
}

// SetLossRate makes the link drop each enqueued packet with probability p
// using draws from rng (deterministic under the single-threaded engine).
// p = 0 disables injected loss; rng may then be nil. Rates outside
// [0, 1), NaN included, panic.
func (l *Link) SetLossRate(p float64, rng *sim.RNG) {
	if !(p >= 0 && p < 1) {
		panic(fmt.Sprintf("netem: loss rate %v out of [0, 1)", p))
	}
	if p > 0 && rng == nil {
		panic("netem: loss rate needs an RNG")
	}
	l.lossRate = p
	l.lossRNG = rng
}

// Reset restores the link to its as-built state for run-instance
// reuse: queue emptied (queued packets recycled into the pool), fault
// and degradation state cleared, rate and delay back to the built
// values, statistics zeroed. In-flight packets are not the link's to
// reclaim — their delivery events die with the engine's own Reset.
// The built ECN threshold is part of the instance's shape and is kept.
func (l *Link) Reset() {
	for l.count > 0 {
		l.pool.Put(l.pop())
	}
	l.head = 0
	l.busy = false
	l.down = false
	l.SetRouteDead(false)
	l.rate = l.baseRate
	l.txSize, l.txTime = [2]uint16{}, [2]sim.Time{}
	l.prop = l.baseProp
	l.lossRate = 0
	l.lossRNG = nil
	l.rec = nil
	l.rxRec = nil
	l.rxBlackholed = 0
	l.rxBlackholedBytes = 0
	l.Stats = LinkStats{}
}

// blackhole accounts one packet swallowed by the down link and recycles
// it: a blackholed packet has reached its terminal point. This is the
// transmit-side variant (enqueue, tx-done, queue drain).
func (l *Link) blackhole(p *Packet) {
	l.Stats.Blackholed++
	l.Stats.BlackholedBytes += int64(p.Size)
	if l.rec != nil {
		src, dst := l.traceIDs()
		l.rec.Record(l.eng.Now(), trace.KindBlackhole, uint64(p.FlowID), p.Subflow, src, dst, p.Seq, 0)
	}
	l.pool.Put(p)
}

// blackholeRx is the receive-side blackhole: an in-flight packet whose
// delivery fires after the link failed. It runs on the destination
// shard's thread, so it touches only rx-side state.
func (l *Link) blackholeRx(p *Packet) {
	l.rxBlackholed++
	l.rxBlackholedBytes += int64(p.Size)
	if l.rxRec != nil {
		src, dst := l.traceIDs()
		l.rxRec.Record(l.rxSched.Now(), trace.KindBlackhole, uint64(p.FlowID), p.Subflow, src, dst, p.Seq, 0)
	}
	l.rxPool.Put(p)
}

// String identifies the link for diagnostics.
func (l *Link) String() string {
	return fmt.Sprintf("link[%s %d->%d]", l.layer, l.src.ID(), l.dst.ID())
}

// Enqueue accepts a packet for transmission. If the transmitter is idle
// the packet begins serialising immediately; otherwise it joins the FIFO
// queue, or is dropped if the queue is full. Dropped packets are counted
// in Stats and vanish (the loss signal reaches transports via duplicate
// ACKs or timeouts, as in a real network).
func (l *Link) Enqueue(p *Packet) {
	if l.down {
		l.blackhole(p)
		return
	}
	if l.lossRate > 0 && l.lossRNG.Float64() < l.lossRate {
		l.Stats.RandomDrops++
		l.Stats.RandomDropBytes += int64(p.Size)
		if l.rec != nil {
			src, dst := l.traceIDs()
			l.rec.Record(l.eng.Now(), trace.KindRandomDrop, uint64(p.FlowID), p.Subflow, src, dst, p.Seq, 0)
		}
		l.pool.Put(p)
		return
	}
	if !l.busy {
		l.Stats.Enqueued++
		if l.rec != nil {
			src, dst := l.traceIDs()
			l.rec.Record(l.eng.Now(), trace.KindEnqueue, uint64(p.FlowID), p.Subflow, src, dst, p.Seq, 0)
		}
		l.transmit(p)
		return
	}
	if l.count >= l.limit {
		l.Stats.Drops++
		l.Stats.DropBytes += int64(p.Size)
		if l.rec != nil {
			src, dst := l.traceIDs()
			l.rec.Record(l.eng.Now(), trace.KindQueueDrop, uint64(p.FlowID), p.Subflow, src, dst, p.Seq, int64(l.limit))
		}
		l.pool.Put(p)
		return
	}
	if l.ECNThreshold > 0 && l.count >= l.ECNThreshold {
		p.Flags |= FlagCE
		if l.rec != nil {
			src, dst := l.traceIDs()
			l.rec.Record(l.eng.Now(), trace.KindECNMark, uint64(p.FlowID), p.Subflow, src, dst, p.Seq, int64(l.count))
		}
	}
	l.Stats.Enqueued++
	if l.rec != nil {
		src, dst := l.traceIDs()
		l.rec.Record(l.eng.Now(), trace.KindEnqueue, uint64(p.FlowID), p.Subflow, src, dst, p.Seq, int64(l.count+1))
	}
	l.accountQueue()
	l.push(p)
	if l.count > l.Stats.MaxQueue {
		l.Stats.MaxQueue = l.count
	}
}

// push appends p at the ring's tail, doubling the ring (and unwrapping
// it to start at index 0) when it is full. Grown capacity is kept across
// drains and Reset, so a pooled link stops allocating once warm.
func (l *Link) push(p *Packet) {
	if l.count == len(l.queue) {
		grown := make([]*Packet, max(8, 2*len(l.queue)))
		n := copy(grown, l.queue[l.head:])
		copy(grown[n:], l.queue[:l.head])
		l.queue, l.head = grown, 0
	}
	l.queue[(l.head+l.count)&(len(l.queue)-1)] = p
	l.count++
}

// pop removes and returns the packet at the ring's head; count must be
// positive.
func (l *Link) pop() *Packet {
	p := l.queue[l.head]
	l.queue[l.head] = nil
	l.head = (l.head + 1) & (len(l.queue) - 1)
	l.count--
	return p
}

// accountQueue folds the elapsed interval at the current queue length
// into the occupancy integral; callers invoke it immediately before
// changing the queue length.
func (l *Link) accountQueue() {
	now := l.eng.Now()
	l.Stats.QueueIntegral += int64(l.count) * int64(now-l.Stats.lastQChange)
	l.Stats.lastQChange = now
}

func (l *Link) transmit(p *Packet) {
	l.busy = true
	tx := l.txTime[0]
	if p.Size != l.txSize[0] {
		if tx = l.txTime[1]; p.Size != l.txSize[1] {
			tx = sim.TransmissionTime(int(p.Size), l.rate)
			l.txSize[1], l.txTime[1] = l.txSize[0], l.txTime[0]
			l.txSize[0], l.txTime[0] = p.Size, tx
		}
	}
	l.Stats.BusyTime += tx
	l.eng.ScheduleArg(tx, l.txDoneFn, p)
}

// txDone fires when the last bit of p has been serialised: the packet
// begins propagating and the transmitter picks up the next queued packet.
// If the link failed while p was serialising, p and the (already drained)
// queue are gone and the transmitter goes idle.
func (l *Link) txDone(p *Packet) {
	if l.down {
		l.blackhole(p)
		l.busy = false
		return
	}
	l.Stats.TxPackets++
	l.Stats.TxBytes += int64(p.Size)
	// Absolute-time scheduling through rxSched: on a sequential engine
	// this is exactly ScheduleArg(prop, ...); on a shard boundary it
	// routes the delivery into the destination shard's heap (via the
	// outbox), which is what makes the link the cut point of the fabric
	// partition.
	l.rxSched.AtArg(l.eng.Now()+l.prop, l.deliverFn, p)
	if l.count > 0 {
		l.accountQueue()
		l.transmit(l.pop())
		return
	}
	l.busy = false
}

// deliver fires when p finishes propagating: it arrives at the
// destination node, unless the link failed mid-propagation, in which
// case the packet is lost with everything else in flight.
func (l *Link) deliver(p *Packet) {
	if l.down {
		l.blackholeRx(p)
		return
	}
	p.Hops++
	l.dst.Receive(p, l)
}

// Utilisation returns the fraction of the interval [0, elapsed] during
// which the transmitter was busy.
func (s *LinkStats) Utilisation(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(elapsed)
}
