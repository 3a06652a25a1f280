package netem

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Router computes the set of equal-cost output links a switch may use to
// reach a packet's destination. Implementations are provided by the
// topology package (structured FatTree routing, generic shortest-path
// tables for arbitrary graphs).
type Router interface {
	// NextLinks returns the equal-cost output links toward dst. For a
	// reachable destination on a healthy network the slice is non-empty;
	// during a failure window it may be empty if every candidate link
	// has been excluded by reconverged routing (the switch then drops
	// the packet). The returned slice must not be modified by the caller
	// and is valid only until the next lookup on the same router.
	NextLinks(dst NodeID) []*Link
}

// RouteState is a network's tally of route-dead links, kept in step by
// Link.SetRouteDead and Link.Reset for every link whose Routes points at
// it. It exists so that routers need not inspect links at all while the
// fabric is healthy, and can tell when a filtered set they cached has
// gone stale. It is written only by control-plane events (fault
// injection), which on a sharded fabric run at barriers.
type RouteState struct {
	dead  int    // links currently excluded from routing
	epoch uint64 // bumped on every transition
}

// Dead returns how many links routing currently excludes.
func (rs *RouteState) Dead() int { return rs.dead }

// LiveLinks filters route-dead links (see Link.SetRouteDead) out of a
// router's equal-cost sets; every Router implementation passes its
// lookups through one, which is what makes them converge onto surviving
// paths after a failure. While the network has no route-dead link the
// built set is returned without looking at it. Otherwise a set with a
// dead member is copied — possibly to nothing — into a buffer the filter
// owns and reuses, and remembered until the network's route-dead epoch
// moves, so no lookup allocates in steady state; such a result is valid
// until the next Filter call.
type LiveLinks struct {
	Routes *RouteState

	from  []*Link // the set buf was filtered from
	epoch uint64  // Routes.epoch at that time
	buf   []*Link
}

// Filter returns links without its route-dead members.
func (f *LiveLinks) Filter(links []*Link) []*Link {
	if f.Routes.dead == 0 {
		return links
	}
	if f.epoch == f.Routes.epoch && len(links) == len(f.from) && len(links) > 0 && &links[0] == &f.from[0] {
		return f.buf
	}
	for i, l := range links {
		if l.routeDead {
			f.buf = append(f.buf[:0], links[:i]...)
			for _, m := range links[i+1:] {
				if !m.routeDead {
					f.buf = append(f.buf, m)
				}
			}
			f.from, f.epoch = links, f.Routes.epoch
			return f.buf
		}
	}
	return links
}

// VersionedRouter is implemented by routers that version their tables —
// the routing control plane's per-switch FIBs. The switch consults it on
// every lookup so damage done while the fabric disagrees with itself
// (staggered convergence) is attributed to the transient window rather
// than folded into steady-state noise.
type VersionedRouter interface {
	Router
	// Staging reports whether staged (per-switch) convergence is enabled
	// for this router at all. A switch consults the epoch on lookup only
	// when it is: under atomic convergence Stale/Transient can never be
	// true, and the hot path stays a plain nil check.
	Staging() bool
	// Epoch returns the version of the table serving lookups: the number
	// of staged flips this switch has applied.
	Epoch() uint64
	// Stale reports whether a recomputed table is staged at this switch
	// but has not yet flipped in — lookups are served by the old epoch.
	Stale() bool
	// Transient reports whether the network-wide staggered window is
	// open: some switch has flipped to the new tables while another
	// still serves the old ones.
	Transient() bool
}

// maxHops bounds packet forwarding as a routing-loop backstop. The
// deepest sane path in any supported topology is well under this.
const maxHops = 32

// Switch is an output-queued switch that forwards packets using
// hash-based ECMP: among the equal-cost links returned by its Router, it
// picks the one selected by a hash of the packet's 5-tuple mixed with a
// per-switch seed. Equal 5-tuples therefore always follow the same path
// (no intra-flow reordering from the network itself), while distinct
// source ports spread uniformly — the property both MPTCP subflows and
// MMPTCP's packet-scatter phase rely on.
type Switch struct {
	id     NodeID
	eng    *sim.Engine
	router Router
	// vrouter caches the router's VersionedRouter view (nil for plain
	// routers), so the per-lookup epoch consultation is a nil check plus
	// at most one interface call rather than a type assertion.
	vrouter VersionedRouter
	seed    uint32

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
	// NoRoute counts packets dropped because the router returned an
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

// SetRouter installs the routing function. Topology builders call this
// once wiring is complete, and the routing control plane swaps in its
// per-switch FIB when global reconvergence is enabled.
func (s *Switch) SetRouter(r Router) {
	s.router = r
	s.vrouter = nil
	if vr, ok := r.(VersionedRouter); ok && vr.Staging() {
		s.vrouter = vr
	}
}

// Router returns the currently installed routing function.
func (s *Switch) Router() Router { return s.router }

// SetSeed replaces the per-switch ECMP hash seed. Topology builders seed
// switches at construction; run-instance pooling re-derives the same
// seed stream for a recycled network when the reused config carries a
// different experiment seed.
func (s *Switch) SetSeed(seed uint32) { s.seed = seed }

// Reset clears the switch's crash state and statistics for run-instance
// reuse. The router is deliberately untouched: restoring the as-built
// router after a control plane wrapped it is the topology's job (it is
// the one that recorded the base), via Network.Reset.
func (s *Switch) Reset() {
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
// recorder; the run harness re-installs it per run.
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
			s.rec.Record(s.eng.Now(), trace.KindCrashDrop, p.FlowID, p.Subflow, int32(s.id), -1, p.Seq, 0)
		}
		s.pool.Put(p)
		return
	}
	if p.Hops > maxHops {
		transient := s.vrouter != nil && s.vrouter.Transient()
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
			s.rec.Record(s.eng.Now(), kind, p.FlowID, p.Subflow, int32(s.id), -1, int64(p.Hops), 0)
		}
		s.pool.Put(p)
		return
	}
	links := s.router.NextLinks(p.Dst)
	if s.vrouter != nil && s.vrouter.Stale() {
		s.StaleLookups++
	}
	n := len(links)
	if n == 0 {
		s.NoRoute++
		transient := int64(0)
		if s.vrouter != nil && s.vrouter.Transient() {
			s.TransientNoRoute++
			transient = 1
		}
		if s.rec != nil {
			s.rec.Record(s.eng.Now(), trace.KindNoRouteDrop, p.FlowID, p.Subflow, int32(s.id), -1, transient, 0)
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
