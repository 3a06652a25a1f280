package netem

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// maxHops bounds packet forwarding as a routing-loop backstop. The
// deepest sane path in any supported topology is well under this.
const maxHops = 32

// Switch is an output-queued switch that forwards packets using
// hash-based ECMP: among the equal-cost links its forwarding row holds
// for the destination, it picks the one selected by a hash of the
// packet's 5-tuple mixed with a per-switch seed. Equal 5-tuples therefore
// always follow the same path (no intra-flow reordering from the network
// itself), while distinct source ports spread uniformly — the property
// both MPTCP subflows and MMPTCP's packet-scatter phase rely on.
type Switch struct {
	id   NodeID
	eng  *sim.Engine
	row  Row
	seed uint32

	// down marks a crashed switch (all ports dead, forwarding plane
	// gone). The faults subsystem drives it together with the incident
	// links; see SetDown.
	down      bool
	downSince sim.Time

	// pool recycles packets the switch drops (no route, hop backstop,
	// crashed forwarding plane); nil disables recycling.
	pool *PacketPool

	// rec, when non-nil, receives structured trace events for the
	// switch's drop classes; nil-guarded at every trace point.
	rec *trace.Recorder

	// Stats
	Forwarded int64
	Dropped   int64 // packets discarded due to the hop-count backstop
	// LoopDrops counts hop-backstop drops that happened while the
	// routing transient window was open — switches disagreeing about the
	// tables is what breeds forwarding micro-loops — as distinct from
	// the steady-state hop-limit noise in Dropped. Always zero under
	// atomic convergence.
	LoopDrops int64
	// NoRoute counts packets dropped because the row answered an
	// empty equal-cost set — every candidate link toward the destination
	// was excluded by failures. On a healthy network this stays zero.
	NoRoute int64
	// TransientNoRoute is the slice of NoRoute that fell inside an open
	// staggered-convergence window: blackholes bred by the fabric's
	// momentary disagreement rather than by the failure itself.
	TransientNoRoute int64
	// StaleLookups counts lookups served while a recomputed table was
	// staged at this switch but not yet flipped in — the traffic exposed
	// to the old epoch during the transient window.
	StaleLookups int64
	// Crashes counts how many times the switch went down, and CrashDrops
	// the packets that reached it while crashed (rare: the incident links
	// blackhole almost everything first, but a packet already queued on
	// an inbound link when the crash fires can still arrive).
	Crashes    int64
	CrashDrops int64
	// DownTime accumulates completed down intervals; TimeDown adds a
	// still-open one.
	DownTime sim.Time
}

// NewSwitch creates a switch. seed perturbs the ECMP hash so that
// different switches make independent choices for the same flow, as
// hardware hash functions with per-device keys do.
func NewSwitch(eng *sim.Engine, id NodeID, seed uint32) *Switch {
	return new(Switch).Init(eng, id, seed)
}

// Init is NewSwitch in place, for builders that allocate a fabric's
// switches as one slab.
func (s *Switch) Init(eng *sim.Engine, id NodeID, seed uint32) *Switch {
	*s = Switch{id: id, eng: eng, seed: seed}
	return s
}

// ID returns the switch's node identifier.
func (s *Switch) ID() NodeID { return s.id }

// SetRow installs the switch's forwarding row as built: idx[dst] picks
// the set in sets toward every destination host, and routes is the
// network's route-state tally. Topology builders call this once wiring
// is complete; the row keeps both slices.
func (s *Switch) SetRow(sets [][]*Link, idx []int32, routes *RouteState) {
	s.row = Row{idx: idx, built: idx, sets: sets[:len(sets):len(sets)], nbuilt: len(sets), routes: routes}
}

// Router returns the switch's forwarding row.
func (s *Switch) Router() *Row { return &s.row }

// SetSeed replaces the per-switch ECMP hash seed. Topology builders seed
// switches at construction; run-instance pooling re-derives the same
// seed stream for a recycled network when the reused config carries a
// different experiment seed.
func (s *Switch) SetSeed(seed uint32) { s.seed = seed }

// Reset clears the switch's crash state and statistics and puts its
// forwarding row back as built, for run-instance reuse.
func (s *Switch) Reset() {
	s.row.Reset()
	s.down = false
	s.downSince = 0
	s.Forwarded = 0
	s.Dropped = 0
	s.LoopDrops = 0
	s.NoRoute = 0
	s.TransientNoRoute = 0
	s.StaleLookups = 0
	s.Crashes = 0
	s.CrashDrops = 0
	s.DownTime = 0
	s.rec = nil
}

// SetPool installs the packet free list the switch recycles dropped
// packets into; nil (the default) disables recycling.
func (s *Switch) SetPool(pp *PacketPool) { s.pool = pp }

// Rebind repoints the switch at its owning shard's engine and packet
// pool; see Host.Rebind.
func (s *Switch) Rebind(eng *sim.Engine, pp *PacketPool) { s.eng, s.pool = eng, pp }

// SetRecorder installs (or, with nil, removes) the structured event
// recorder. Reset removes it.
func (s *Switch) SetRecorder(r *trace.Recorder) { s.rec = r }

// Down reports whether the switch is crashed.
func (s *Switch) Down() bool { return s.down }

// SetDown crashes or restarts the switch. The faults injector pairs this
// with failing/repairing every incident link, so the flag is mostly
// accounting: Crashes counts crash events, DownTime the time spent dead,
// and Receive discards anything that still arrives while down.
func (s *Switch) SetDown(down bool) {
	if down == s.down {
		return
	}
	now := s.eng.Now()
	if down {
		s.down = true
		s.Crashes++
		s.downSince = now
		return
	}
	s.down = false
	s.DownTime += now - s.downSince
}

// TimeDown returns the total time the switch has spent crashed up to
// now, including a still-open crash interval.
func (s *Switch) TimeDown(now sim.Time) sim.Time {
	d := s.DownTime
	if s.down && now > s.downSince {
		d += now - s.downSince
	}
	return d
}

// Receive implements Node: look up the equal-cost set for the packet's
// destination, pick a link by flow hash, and enqueue. A packet with no
// surviving route is counted and dropped — transports see the loss the
// same way they see a blackhole, through silence.
func (s *Switch) Receive(p *Packet, from *Link) {
	if s.down {
		s.CrashDrops++
		if s.rec != nil {
			s.rec.Record(s.eng.Now(), trace.KindCrashDrop, uint64(p.FlowID), p.Subflow, int32(s.id), -1, p.Seq, 0)
		}
		s.pool.Put(p)
		return
	}
	row := &s.row
	if p.Hops > maxHops {
		transient := row.routes.staged > 0
		if transient {
			s.LoopDrops++
		} else {
			s.Dropped++
		}
		if s.rec != nil {
			kind := trace.KindHopDrop
			if transient {
				kind = trace.KindLoopDrop
			}
			s.rec.Record(s.eng.Now(), kind, uint64(p.FlowID), p.Subflow, int32(s.id), -1, int64(p.Hops), 0)
		}
		s.pool.Put(p)
		return
	}
	links := row.NextLinks(p.Dst)
	if row.staged != nil {
		s.StaleLookups++
	}
	n := len(links)
	if n == 0 {
		s.NoRoute++
		transient := int64(0)
		if row.routes.staged > 0 {
			s.TransientNoRoute++
			transient = 1
		}
		if s.rec != nil {
			s.rec.Record(s.eng.Now(), trace.KindNoRouteDrop, uint64(p.FlowID), p.Subflow, int32(s.id), -1, transient, 0)
		}
		s.pool.Put(p)
		return
	}
	var out *Link
	if n == 1 {
		out = links[0]
	} else {
		out = links[p.FlowHash(s.seed)%uint32(n)]
	}
	s.Forwarded++
	out.Enqueue(p)
}
