package netem

import "slices"

// RouteState is a network's routing tally: its route-dead links, kept in
// step by Link.SetRouteDead and Link.Reset for every link whose Routes
// points at it, and its switches holding a staged row, kept by Row. It
// exists so that rows need not inspect links at all while the fabric is
// healthy, and can tell when the live sets they filtered have gone stale.
// It is written only by control-plane events (fault injection, routing),
// which on a sharded fabric run at barriers.
type RouteState struct {
	dead   int    // links currently excluded from routing
	epoch  uint64 // bumped on every link transition
	staged int    // rows whose staged row awaits its flip
}

// Dead returns how many links routing currently excludes.
func (rs *RouteState) Dead() int { return rs.dead }

// Row is one switch's row of its network's forwarding table: a short
// list of distinct equal-cost sets and, per destination host, the index
// of the set that reaches it. Every set keeps the builder's link order,
// because ECMP picks set[hash % len(set)].
//
// The first sets are the row as built, and an entry naming one of them
// is live-filtered: while the network has a route-dead link, it is
// answered from the row's one owned copy of every built set minus its
// route-dead members, refiltered at the first lookup after a route-dead
// transition. A lookup on a degraded fabric therefore touches no Link,
// and switches forwarding on different shards never share a copy. The
// routing control plane appends override sets and points entries at them
// (Write); an override is served exactly as installed. Under staggered
// convergence it writes a staged copy of the row instead, which serves
// from its Flip.
type Row struct {
	idx    []int32   // serving: built, or a private copy once overridden
	sets   [][]*Link // [:nbuilt] as built, then override sets
	nbuilt int
	routes *RouteState

	built      []int32   // the row as built: the healthy baseline
	staged     []int32   // the staged row awaiting its flip, or nil
	over       int       // override entries in idx
	stagedOver int       // override entries in staged
	spare      [][]int32 // private rows to recycle

	// live[i] is sets[i] without its route-dead members, for every built
	// set, as of routes.epoch == epoch. It is sized at the row's first
	// degraded lookup, as one slice header per set over one backing array.
	live  [][]*Link
	epoch uint64
}

// NextLinks returns the equal-cost links the switch forwards on toward
// dst — none when every candidate is route-dead, routing found no way, or
// dst is not a host. The slice must not be modified and is valid until
// the next route-dead transition or Write.
func (r *Row) NextLinks(dst NodeID) []*Link {
	if uint(dst) >= uint(len(r.idx)) {
		return nil
	}
	return r.serve(r.idx[dst])
}

// serve returns set i as it is served: live-filtered if built.
func (r *Row) serve(i int32) []*Link {
	if int(i) >= r.nbuilt || r.routes.dead == 0 {
		return r.sets[i]
	}
	if r.epoch != r.routes.epoch {
		r.refilter()
	}
	return r.live[i]
}

// refilter rebuilds every live set from its built set, allocating them on
// first use. A fabric's route-dead count is non-zero only after a
// transition has moved its epoch off zero, so a fresh row always
// refilters before its first degraded answer.
func (r *Row) refilter() {
	built := r.sets[:r.nbuilt]
	if r.live == nil {
		n := 0
		for _, set := range built {
			n += len(set)
		}
		r.live = make([][]*Link, len(built))
		buf := make([]*Link, n)
		for i, set := range built {
			r.live[i], buf = buf[:0:len(set)], buf[len(set):]
		}
	}
	for i, set := range built {
		live := r.live[i][:0]
		for _, l := range set {
			if !l.routeDead {
				live = append(live, l)
			}
		}
		r.live[i] = live
	}
	r.epoch = r.routes.epoch
}

// Stale reports whether a staged row awaits its flip: lookups are still
// served by the row before it.
func (r *Row) Stale() bool { return r.staged != nil }

// Write makes eq what the row answers toward dst: an override entry
// holding a copy of eq when eq differs from the as-built set, the as-built
// entry otherwise. It writes the staged row if there is one. Otherwise,
// with stage set, it first forks a staged row from the serving one (and
// reports that it did), and without, it writes the serving row. eq is the
// caller's scratch.
func (r *Row) Write(dst NodeID, eq []*Link, stage bool) (forked bool) {
	row, n := r.idx, &r.over
	if r.staged != nil {
		row, n = r.staged, &r.stagedOver
	}
	b, cur := r.built[dst], row[dst]
	want := !slices.Equal(eq, r.sets[b])
	if want == (cur != b) && (!want || slices.Equal(eq, r.sets[cur])) {
		return false
	}
	if r.staged == nil {
		if stage {
			r.staged, r.stagedOver = r.grab(r.idx), r.over
			r.routes.staged++
			row, n, forked = r.staged, &r.stagedOver, true
		} else if r.shared() {
			r.idx = r.grab(r.built)
			row = r.idx
		}
	}
	if !want {
		row[dst] = b
		*n--
		r.settle()
		return forked
	}
	if cur == b {
		*n++
	}
	row[dst] = r.intern(eq)
	return forked
}

// Flip makes the staged row the serving one and returns how many override
// entries it holds.
func (r *Row) Flip() int {
	if !r.shared() {
		r.spare = append(r.spare, r.idx)
	}
	r.idx, r.over, r.staged = r.staged, r.stagedOver, nil
	r.routes.staged--
	entries := r.over
	r.settle()
	return entries
}

// Overrides counts the serving override entries that differ from the
// live-filtered as-built answer.
func (r *Row) Overrides() int {
	n := 0
	if r.over > 0 {
		for dst, i := range r.idx {
			if int(i) >= r.nbuilt && !slices.Equal(r.sets[i], r.serve(r.built[dst])) {
				n++
			}
		}
	}
	return n
}

// Reset puts the row back as built, for run-instance reuse.
func (r *Row) Reset() {
	if r.staged != nil {
		r.spare = append(r.spare, r.staged)
		r.staged = nil
		r.routes.staged--
	}
	r.over, r.stagedOver = 0, 0
	r.settle()
}

// settle returns a row no entry overrides any more to the as-built row,
// and drops its override sets (intern reuses their storage).
func (r *Row) settle() {
	if r.over > 0 || r.staged != nil {
		return
	}
	if !r.shared() {
		r.spare = append(r.spare, r.idx)
		r.idx = r.built
	}
	r.sets = r.sets[:r.nbuilt]
}

// shared reports whether the serving row is the as-built one.
func (r *Row) shared() bool { return len(r.idx) == 0 || &r.idx[0] == &r.built[0] }

// grab returns a recycled (or new) private row holding a copy of from.
func (r *Row) grab(from []int32) []int32 {
	var row []int32
	if n := len(r.spare); n > 0 {
		row, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		row = make([]int32, len(from))
	}
	copy(row, from)
	return row
}

// intern returns the index of the override set equal to eq, appending a
// copy when there is none.
func (r *Row) intern(eq []*Link) int32 {
	n := len(r.sets)
	for i := r.nbuilt; i < n; i++ {
		if slices.Equal(eq, r.sets[i]) {
			return int32(i)
		}
	}
	var s []*Link
	if n < cap(r.sets) {
		s = r.sets[:n+1][n] // a set settle dropped: reuse its storage
	}
	r.sets = append(r.sets, append(s[:0], eq...))
	return int32(n)
}
