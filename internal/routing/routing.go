// Package routing is the global routing control plane. Without it,
// reconvergence is link-local: each switch's forwarding row filters its
// own route-dead links out of its as-built equal-cost sets, but upstream
// ECMP keeps hashing onto next hops that lost their only way forward — a
// core switch whose sole downlink to a pod died still receives that pod's
// traffic and drops it as NoRoute. The control plane closes that gap:
// whenever the fault injector flips a link's routing state
// (reconvergence-delayed), it recomputes global reachability with a
// breadth-first pass over the live links and writes override entries
// into exactly the (switch, destination) places of the network's
// forwarding table (netem.Row) whose equal-cost sets diverge from the
// row as built.
//
// Everything lives on dense arrays indexed by NodeID: builders number
// hosts 0..H-1, then switches in builder order (Install checks it), so
// "is a host" and "switch ordinal" are arithmetic. The adjacency and the
// breadth-first search are the network's own (topology.Graph, which fills
// the rows of every topology but the FatTree); a distance table is a
// recycled []int32 per node (0 = unreached). A row holds a few distinct
// sets and a set index per host, so a lookup is two array reads and an
// override is an index to an interned copy of its set; each set is built
// in scratch and copied only when no set of the row equals it, so a
// steady-state recompute allocates only the sets that are new.
//
// Recompute is a two-stage pipeline. Stage one computes the target
// tables incrementally: distance tables are cached per live-attachment
// signature (all hosts sharing the same set of live access switches
// share one reverse BFS) and stay valid across recomputes; a link
// transition invalidates only the signatures whose shortest-path DAG the
// flipped link can belong to (see entryDirty), and destinations whose
// distances and equal-cost sets are provably untouched are skipped
// entirely (signatures are exact strings, not hashes: a collision would
// silently install another destination's tables). Stage two distributes
// the targets. Under ConvergeAtomic (the default) every row is written in
// place at recompute time — one global table swap. Under
// ConvergeStaggered a switch's new entries go to a staged row whose flip
// is scheduled at its own virtual time: recompute time plus PerHopDelay
// for every hop the switch sits from the nearest element of the
// transition batch, the way real control planes converge outward from a
// failure. While flips are outstanding the fabric disagrees with itself —
// micro-loops and transient blackholes — and the switches make that
// observable: a stale row (staged, not yet flipped) and the open
// network-wide window classify their lookups and drops, and Stats records
// the flip spread and cumulative window time.
//
// Installing the plane changes no row: overrides exist only for
// destinations whose reachability actually changed, every other entry
// stays as built. Recomputes are coalesced — any number of simultaneous link transitions
// trigger exactly one rebuild — and everything is deterministic: passes
// iterate hosts and switches in builder order and flips are scheduled in
// builder order, so identical fault schedules yield byte-identical
// routing at any sweep worker count. Incrementality is behaviour-neutral
// by construction; TestRecomputeMatchesOracle checks every table after
// every recompute against a brute-force rebuild, and the staggered path
// with PerHopDelay=0 degenerates to atomic exactly (flips due "now" apply
// inline).
//
// The package owns the routing section of the public configuration:
// mmptcp.RoutingConfig is Config, Resolve is the one place it is
// defaulted and checked, and Stats reports in metrics.RoutingStats, the
// type Results.Routing carries.
package routing

import (
	"bytes"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Mode selects the repair model for a run.
type Mode string

const (
	// Local is the baseline: switches exclude their own route-dead links
	// and nothing else — upstream ECMP stays oblivious.
	Local Mode = "local"
	// Global recomputes reachability network-wide after each
	// (reconvergence-delayed) link state change, so ECMP everywhere
	// steers around paths that cannot reach the destination.
	Global Mode = "global"
)

// Convergence selects how recomputed tables reach the switches.
type Convergence string

const (
	// Atomic flips every switch's table at recompute time — one global
	// swap, no transient disagreement. This is the default and the
	// pre-staged behaviour bit for bit.
	Atomic Convergence = "atomic"
	// Staggered schedules each switch's flip at its own time: recompute
	// time plus Config.PerHopDelay per hop from the nearest element of
	// the transition batch. Switches disagree until the last flip lands,
	// opening the micro-loop / transient-blackhole window real control
	// planes exhibit.
	Staggered Convergence = "staggered"
)

// Config is the routing section of a run's configuration
// (mmptcp.RoutingConfig is this type): which repair model runs under
// failures and how recomputed tables reach the switches. The zero value
// resolves to local repair with atomic flips.
type Config struct {
	// Mode selects the repair model. Local (the default) is link-local
	// reconvergence: each switch stops using its own dead links but
	// upstream ECMP stays oblivious, so traffic keeps hashing onto next
	// hops with no way forward (NoRouteDrops). Global installs the
	// control plane that recomputes global reachability after each
	// reconvergence-delayed link state change and steers ECMP around
	// unreachable next hops. Install ignores it: the caller decides
	// whether a plane is installed at all.
	Mode Mode

	// Convergence picks how the control plane's recomputed tables reach
	// the switches: Atomic (default) flips every switch at recompute
	// time; Staggered gives each switch its own FIB flip time —
	// recompute time plus PerHopDelay per hop from the nearest failed
	// element — opening the micro-loop and transient-blackhole window
	// real control planes exhibit (accounted in Results.Routing and
	// Results.LoopDrops). Staggered convergence requires Mode Global.
	Convergence Convergence
	// PerHopDelay is the staggered flip delay per hop of distance from
	// the transition; zero makes Staggered degenerate to Atomic exactly.
	// It is only meaningful under Staggered and must not be negative.
	PerHopDelay sim.Time
}

// Resolve is the one place a routing section is defaulted and judged:
// an empty Mode becomes Local and an empty Convergence Atomic, and every
// rule is checked, so a section is rejected even on runs that never
// install a control plane. Resolving a resolved config changes nothing.
func (c *Config) Resolve() error {
	switch c.Mode {
	case "":
		c.Mode = Local
	case Local, Global:
	default:
		return fmt.Errorf("routing: unknown mode %q (want %q or %q)", c.Mode, Local, Global)
	}
	switch c.Convergence {
	case "":
		c.Convergence = Atomic
	case Atomic, Staggered:
	default:
		return fmt.Errorf("routing: unknown convergence %q (want %q or %q)", c.Convergence, Atomic, Staggered)
	}
	if c.PerHopDelay < 0 {
		return fmt.Errorf("routing: negative PerHopDelay %v", c.PerHopDelay)
	}
	if c.PerHopDelay > 0 && c.Convergence != Staggered {
		return fmt.Errorf("routing: PerHopDelay is only meaningful with Convergence %q", Staggered)
	}
	if c.Convergence == Staggered && c.Mode != Global {
		return fmt.Errorf("routing: staggered convergence requires Mode %q (local repair has no control plane to stage)", Global)
	}
	return nil
}

// ConvergenceOpen reports whether routing is still settling after a
// topology change: true while an invalidation awaits its recompute
// (dirty) or staged rows await their flips (staleRows). MMPTCP's phase
// switch consults it (core.ConvergenceObserver) to avoid re-homing a
// flow's subflows onto tables that are mid-flip.
func (cp *ControlPlane) ConvergenceOpen() bool {
	return cp.dirty || cp.staleRows > 0
}

// install writes dst's computed equal-cost set into switch i's row: the
// serving row (atomic), or its staged row, forked from the serving one on
// the first actual divergence (staged).
func (cp *ControlPlane) install(i int, dst netem.NodeID, eq []*netem.Link, staged bool) {
	if cp.switches[i].Router().Write(dst, eq, staged) {
		cp.staleRows++
		if cp.staleRows == 1 {
			cp.windowOpenedAt = cp.eng.Now()
		}
	}
}

// applyFlip makes switch i's staged row the serving one and closes the
// transient window if it was the last stale row.
func (cp *ControlPlane) applyFlip(i int) {
	entries := cp.switches[i].Router().Flip()
	cp.epochs[i]++
	if cp.rec != nil {
		cp.rec.Record(cp.eng.Now(), trace.KindFIBFlip, 0, -1, int32(cp.nHosts+i), -1,
			int64(cp.epochs[i]), int64(entries))
	}
	cp.stats.Flips++
	cp.staleRows--
	if cp.staleRows == 0 {
		cp.stats.TransientTime += cp.eng.Now() - cp.windowOpenedAt
		// The window just closed on rows the recompute-time override
		// count never saw: mark the stat stale and let Stats() recount
		// once when somebody actually reads it, instead of scanning every
		// row on every window close.
		cp.overridesStale = true
	}
}

// flip records one routing-visible link transition for the invalidation
// pass: the link's endpoints and the direction of the change.
type flip struct {
	u, v netem.NodeID // src and dst switch of the flipped link
	dead bool         // true: became route-dead; false: became route-live
}

// distEntry is one cached reverse-BFS result: hop distances by NodeID from
// every reachable switch to the destinations sharing one live-attachment
// signature (0 = unreached, hosts included). epoch records the recompute
// that (re)built it.
type distEntry struct {
	dist  []int32
	epoch uint64
}

// ControlPlane writes the override entries of one built network's
// forwarding rows on demand. Create with Install, trigger with
// Invalidate (typically wired to faults.Injector.OnRouteChange).
type ControlPlane struct {
	eng *sim.Engine
	cfg Config

	// switches is net.Switches: switch i has NodeID nHosts+i and every
	// smaller NodeID is a host (Install checks the layout). A row decides
	// an override against its as-built set, not the live-filtered answer,
	// so whether a (switch, destination) override exists depends only on
	// the computed set — what lets the incremental pass skip destinations
	// its predicate proves untouched.
	switches []*netem.Switch
	nHosts   int
	// epochs counts each switch's applied staged flips. flipAt is the
	// scheduled flip time of its staged row: each batch schedules its own
	// flip event, and an event is authoritative only if it fires exactly
	// at flipAt, so a batch that re-stages a switch with a pending flip
	// moves the flip to its own schedule instead of letting the stale
	// event install the fresher row early.
	epochs []uint64
	flipAt []sim.Time

	// g is the network's adjacency and breadth-first search.
	g *topology.Graph

	dirty bool
	// pending accumulates the switch-to-switch link transitions since
	// the last recompute; host-incident transitions never affect switch
	// tables except through the attachment signature, which is
	// recomputed per destination anyway. seeds carries the switch
	// endpoints of host-incident transitions: the invalidation pass
	// ignores them, but the staggered flip-delay BFS needs the failure's
	// location.
	pending []flip
	seeds   []netem.NodeID

	// distCache maps a destination's live-attachment signature to its
	// cached distance table; entries survive recomputes until a flip
	// invalidates them. hostSig remembers each host's signature as of
	// its last reconciliation, so a host whose attachment changed is
	// reconciled even when its new signature's entry is cached.
	distCache map[string]*distEntry
	hostSig   [][]byte
	epoch     uint64

	// Staggered-convergence state: flipDist is the per-switch hop
	// distance from the current batch's seeds (reused across batches),
	// staleRows counts switches whose staged row awaits its flip,
	// windowOpenedAt stamps when staleRows last left zero, and
	// overridesStale marks that flips changed serving rows after the
	// last override recount (Stats refreshes lazily).
	flipDist       []int32
	staleRows      int
	windowOpenedAt sim.Time
	overridesStale bool
	flipFn         func(any)

	// Reusable scratch: recycled distance slices, the flip-delay flood's
	// two frontier slices, the signature key buffer and the equal-cost
	// set under construction.
	freeDists [][]int32
	frontier  []netem.NodeID
	next      []netem.NodeID
	keyBuf    []byte
	eqBuf     []*netem.Link

	// recomputeFn is the cached engine callback (avoids a method-value
	// allocation per coalesced batch).
	recomputeFn func()

	// rec, when non-nil, receives structured trace events (recompute
	// start/end, per-switch row flips); every trace point is nil-guarded.
	rec *trace.Recorder

	// stats is the work counters, in the Results' own type; Mode,
	// Convergence and the switches' lookup counters are the run
	// harness's to fill.
	stats metrics.RoutingStats
}

// Install returns a control plane for the network's forwarding rows. It
// changes no row until the first Invalidate, so installing on a network
// that never degrades is behaviour-neutral. cfg is resolved (see
// Resolve) and tunes convergence; Mode is not read, and the zero value is
// the classic atomic plane. NodeIDs must be hosts 0..H-1, then switches.
func Install(eng *sim.Engine, net *topology.Network, cfg Config) (*ControlPlane, error) {
	nHosts, nSw := len(net.Hosts), len(net.Switches)
	for j, h := range net.Hosts {
		if int(h.ID()) != j {
			return nil, fmt.Errorf("routing: host %d has NodeID %d, want %d", j, h.ID(), j)
		}
	}
	for i, sw := range net.Switches {
		if int(sw.ID()) != nHosts+i {
			return nil, fmt.Errorf("routing: switch %d has NodeID %d, want %d", i, sw.ID(), nHosts+i)
		}
	}
	for _, l := range net.Links {
		if u, v := l.Src().ID(), l.Dst().ID(); uint(u) >= uint(nHosts+nSw) || uint(v) >= uint(nHosts+nSw) {
			return nil, fmt.Errorf("routing: link %d->%d leaves the network's %d nodes", u, v, nHosts+nSw)
		}
	}
	cp := &ControlPlane{
		eng:       eng,
		cfg:       cfg,
		switches:  net.Switches,
		nHosts:    nHosts,
		epochs:    make([]uint64, nSw),
		flipAt:    make([]sim.Time, nSw),
		g:         net.Graph(),
		flipDist:  make([]int32, nSw),
		distCache: make(map[string]*distEntry),
		hostSig:   make([][]byte, nHosts),
	}
	cp.recomputeFn = cp.Recompute
	cp.flipFn = func(a any) {
		sw := a.(*netem.Switch)
		i := int(sw.ID()) - nHosts
		// Authoritative only when this event IS the current schedule: a
		// later batch that re-staged the switch moved flipAt to its own
		// time (and scheduled its own event), and an inline apply left
		// no staged row at all.
		if sw.Router().Stale() && eng.Now() == cp.flipAt[i] {
			cp.applyFlip(i)
		}
	}
	return cp, nil
}

// Stats returns the work counters. A still-open transient window (under
// sustained churn new batches can re-stage tables before the previous
// flips all land, so the fabric never fully agrees) is included in
// TransientTime up to the current virtual time, and the override count
// is refreshed if flips changed serving tables since the last recount.
func (cp *ControlPlane) Stats() metrics.RoutingStats {
	if cp.overridesStale {
		cp.recountOverrides()
	}
	st := cp.stats
	if cp.staleRows > 0 {
		st.TransientTime += cp.eng.Now() - cp.windowOpenedAt
	}
	return st
}

func (cp *ControlPlane) staggered() bool { return cp.cfg.Convergence == Staggered }

// SetRecorder installs (or, with nil, removes) the structured event
// recorder. The run harness calls this right after Install.
func (cp *ControlPlane) SetRecorder(r *trace.Recorder) { cp.rec = r }

// Invalidate marks the tables stale and schedules one recompute at the
// current virtual time. Any number of Invalidate calls before that
// recompute runs coalesce into it — a switch crash that deadens dozens
// of ports at one instant costs a single table rebuild. The flipped link
// l (its state already changed; must not be nil) scopes the recompute to
// the destinations it can affect.
func (cp *ControlPlane) Invalidate(l *netem.Link) {
	u, v := l.Src().ID(), l.Dst().ID()
	// Host uplinks never appear in switch tables or distance tables, and
	// switch->host downlinks only matter through the destination's
	// attachment signature: neither needs an invalidation record. Their
	// switch endpoint is still recorded as a seed, where the staggered
	// flip-delay pass starts.
	uSw, vSw := int(u) >= cp.nHosts, int(v) >= cp.nHosts
	if uSw && vSw {
		cp.pending = append(cp.pending, flip{u: u, v: v, dead: l.RouteDead()})
	} else if uSw {
		cp.seeds = append(cp.seeds, u)
	} else if vSw {
		cp.seeds = append(cp.seeds, v)
	}
	if cp.dirty {
		return
	}
	cp.dirty = true
	cp.eng.Schedule(0, cp.recomputeFn)
}

// Recompute rebuilds the override entries invalidated by the transitions
// since the last pass — stage one of the pipeline — and then distributes
// them: atomically in place, or (staggered) as per-switch flips
// scheduled by distance from the batch's seeds. It is normally reached
// through Invalidate; tests may call it directly (a direct call with no
// recorded transitions re-verifies signatures but reuses every cached
// distance table).
func (cp *ControlPlane) Recompute() {
	cp.dirty = false
	cp.stats.Recomputes++
	cp.stats.LastConvergence = cp.eng.Now()
	cp.epoch++
	tracing := cp.rec != nil
	if tracing {
		cp.rec.Record(cp.eng.Now(), trace.KindRecomputeStart, 0, -1, -1, -1,
			int64(len(cp.pending)+len(cp.seeds)), int64(cp.stats.Recomputes))
	}
	recBefore, skipBefore := cp.stats.DstRecomputed, cp.stats.DstSkipped

	staggered := cp.staggered()
	if staggered {
		// Flip delays derive from the batch about to be consumed; compute
		// them before the invalidation pass clears it.
		cp.computeFlipDelays()
	}

	if len(cp.pending) > 0 {
		for key, e := range cp.distCache {
			if cp.entryDirty(e) {
				delete(cp.distCache, key)
				clear(e.dist)
				cp.freeDists = append(cp.freeDists, e.dist)
			}
		}
	}
	cp.pending, cp.seeds = cp.pending[:0], cp.seeds[:0]

	// Fill the missing distance tables: one BFS per distinct absent
	// signature, in destination order. Inserting the entry before the
	// next destination's lookup deduplicates them.
	for dst := netem.NodeID(0); int(dst) < cp.nHosts; dst++ {
		cp.signature(dst)
		if _, ok := cp.distCache[string(cp.keyBuf)]; ok {
			continue
		}
		e := &distEntry{dist: cp.grabDist(), epoch: cp.epoch}
		cp.distCache[string(cp.keyBuf)] = e
		cp.stats.BFSRuns++
		cp.g.Distances(e.dist, dst)
	}

	for i := range cp.hostSig {
		dst := netem.NodeID(i)
		cp.signature(dst)
		e := cp.distCache[string(cp.keyBuf)]
		// A destination needs reconciling when its distances were
		// rebuilt this pass, or when its attachment signature changed
		// (same cached distances, different access links in the edge
		// switches' equal-cost sets). Otherwise nothing about its
		// tables can have moved and the whole destination is skipped.
		if e.epoch == cp.epoch || !bytes.Equal(cp.keyBuf, cp.hostSig[i]) {
			cp.reconcile(dst, e.dist, staggered)
			cp.hostSig[i] = append(cp.hostSig[i][:0], cp.keyBuf...)
			cp.stats.DstRecomputed++
		} else {
			cp.stats.DstSkipped++
		}
	}

	if staggered {
		cp.flushFlips()
	}
	cp.recountOverrides()
	if tracing {
		cp.rec.Record(cp.eng.Now(), trace.KindRecomputeEnd, 0, -1, -1, -1,
			int64(cp.stats.DstRecomputed-recBefore), int64(cp.stats.DstSkipped-skipBefore))
	}
}

// recountOverrides refreshes Stats.Overrides against the rows currently
// serving lookups. It counts only entries that diverge from the
// live-filtered as-built answer: reconciling against the as-built set (so
// override existence is a pure function of the computed set — what makes
// skipping sound) also pins entries the live filter would have answered
// identically, and excluding those keeps the metric identical to the
// pre-incremental plane's.
func (cp *ControlPlane) recountOverrides() {
	cp.stats.Overrides, cp.overridesStale = 0, false
	for _, sw := range cp.switches {
		cp.stats.Overrides += sw.Router().Overrides()
	}
}

// computeFlipDelays assigns every switch its hop distance from the
// nearest seed of the current transition batch (the endpoints of the
// flipped links), breadth-first over the live fabric. Switches the flood
// cannot reach — their side of a partition — converge one hop after the
// farthest reached switch, so every staged table still lands. A batch
// with no seeds (a direct Recompute call) flips everything at distance
// zero, i.e. atomically.
func (cp *ControlPlane) computeFlipDelays() {
	if len(cp.pending) == 0 && len(cp.seeds) == 0 {
		clear(cp.flipDist)
		cp.seeds = cp.seeds[:0]
		return
	}
	for i := range cp.flipDist {
		cp.flipDist[i] = -1
	}
	// Both endpoints of every pending flip seed the flood as well.
	for _, f := range cp.pending {
		cp.seeds = append(cp.seeds, f.u, f.v)
	}
	frontier, next := cp.frontier[:0], cp.next[:0]
	for _, id := range cp.seeds {
		if ord := int(id) - cp.nHosts; cp.flipDist[ord] < 0 {
			cp.flipDist[ord] = 0
			frontier = append(frontier, id)
		}
	}
	cp.seeds = cp.seeds[:0]
	maxD := int32(0)
	for len(frontier) > 0 {
		next = next[:0]
		for _, v := range frontier {
			d := cp.flipDist[int(v)-cp.nHosts] + 1
			for _, h := range cp.g.Out[v] {
				ord := int(h.ID) - cp.nHosts
				if ord < 0 || cp.flipDist[ord] >= 0 || h.L.RouteDead() {
					continue
				}
				cp.flipDist[ord] = d
				maxD = max(maxD, d)
				next = append(next, h.ID)
			}
		}
		frontier, next = next, frontier
	}
	cp.frontier, cp.next = frontier[:0], next[:0]
	for i := range cp.flipDist {
		if cp.flipDist[i] < 0 {
			cp.flipDist[i] = maxD + 1
		}
	}
}

// flushFlips distributes the staged rows: every stale switch flips at
// recompute time plus PerHopDelay per hop of flip distance — inline when
// that is now (the seeds themselves, or PerHopDelay zero), as a scheduled
// event otherwise. A switch re-staged while an earlier flip is still in
// flight moves to this batch's schedule (flipAt); the superseded event
// fires off-schedule and is ignored, so a fresher row is never installed
// earlier than its own flip time. Scheduling walks switches in builder
// order, so the flip sequence is deterministic.
func (cp *ControlPlane) flushFlips() {
	now := cp.eng.Now()
	first, last := sim.Time(-1), sim.Time(-1)
	for i, sw := range cp.switches {
		if !sw.Router().Stale() {
			continue
		}
		at := now + sim.Time(cp.flipDist[i])*cp.cfg.PerHopDelay
		if first < 0 || at < first {
			first = at
		}
		if at > last {
			last = at
		}
		if at <= now {
			cp.applyFlip(i)
			continue
		}
		if cp.flipAt[i] == at {
			// Re-staged onto an identical schedule; the event already in
			// flight for this exact time stays authoritative (flipAt is
			// only ever set alongside a scheduled event, and a past
			// flipAt cannot equal a future `at`).
			continue
		}
		cp.flipAt[i] = at
		cp.eng.ScheduleArg(at-now, cp.flipFn, sw)
	}
	if first >= 0 {
		cp.stats.FirstFlip, cp.stats.LastFlip = first, last
	}
}

// entryDirty reports whether any pending flip can change the entry's
// distances or any equal-cost set derived from them. For a flipped link
// u->v judged against cached distances D (computed before the batch):
//
//   - D[v] absent: the reverse BFS never reaches the link, and v is a
//     switch (host-incident flips are filtered at Invalidate), so it is
//     in no equal-cost set either — unless the link came alive and u was
//     unreachable only for want of it.
//   - Link died: it mattered exactly when it was part of the shortest-
//     path DAG, i.e. D[u] == D[v]+1 (BFS relaxation guarantees
//     D[u] <= D[v]+1 while the link was live, so anything else means a
//     strictly longer detour that no table used).
//   - Link revived: it matters when it offers u a path at least as short
//     as the cached one (D[v]+1 <= D[u], joining or improving the DAG)
//     or when u was unreachable (D[u] absent).
//
// Transitions judged clean one by one compose: removals of non-DAG edges
// cannot lengthen any shortest path, and additions that improve no
// distance individually cannot improve one jointly (a first improved
// node would need an improving edge, contradicting per-edge cleanness).
func (cp *ControlPlane) entryDirty(e *distEntry) bool {
	for _, f := range cp.pending {
		du, dv := e.dist[f.u], e.dist[f.v]
		if dv == 0 {
			continue
		}
		if f.dead {
			if du == dv+1 {
				return true
			}
		} else if du == 0 || dv+1 <= du {
			return true
		}
	}
	return false
}

// signature rebuilds cp.keyBuf for destination dst: the source switches
// of its live access downlinks in builder order (the live-attachment
// signature its distance table is keyed by; the table depends on nothing
// else).
func (cp *ControlPlane) signature(dst netem.NodeID) {
	cp.keyBuf = cp.keyBuf[:0]
	for _, h := range cp.g.In[dst] {
		if !h.L.RouteDead() {
			cp.keyBuf = append(cp.keyBuf, byte(h.ID), byte(h.ID>>8), byte(h.ID>>16), byte(h.ID>>24))
		}
	}
}

// grabDist recycles (or makes) an all-zero distance table.
func (cp *ControlPlane) grabDist() []int32 {
	if n := len(cp.freeDists); n > 0 {
		dist := cp.freeDists[n-1]
		cp.freeDists = cp.freeDists[:n-1]
		return dist
	}
	return make([]int32, len(cp.g.Out))
}

// reconcile computes the equal-cost set of every switch for destination
// dst, given the live hop distances, and writes it in place (atomic) or
// stages it for the switch's scheduled flip (staggered). A switch whose
// computed set matches its as-built set carries no override.
func (cp *ControlPlane) reconcile(dst netem.NodeID, dist []int32, staggered bool) {
	eq := cp.eqBuf
	for i := range cp.switches {
		eq = cp.g.EqualCost(eq[:0], netem.NodeID(cp.nHosts+i), dst, dist)
		cp.install(i, dst, eq, staggered)
	}
	cp.eqBuf = eq[:0]
}
