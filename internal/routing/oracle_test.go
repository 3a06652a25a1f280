package routing

import (
	"slices"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The differential test below drives the control plane with random
// link-flip programs and, after every recompute, compares every
// (switch, host) lookup, the override count and sampled path counts with
// a brute-force oracle. The oracle is the layout the dense tables
// replaced — maps keyed by NodeID, a fresh reverse BFS per destination,
// no caching, no skipping, nothing incremental — and lives only here: it
// is what the answers mean, not a second code path.

// oracleTopologies are the fabrics the programs run on: one per builder.
var oracleTopologies = []func(eng *sim.Engine) *topology.Network{
	func(eng *sim.Engine) *topology.Network {
		return &topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()}).Network
	},
	func(eng *sim.Engine) *topology.Network {
		return &topology.NewMultiHomed(eng, topology.MultiHomedConfig{K: 4, Link: topology.DefaultLinkConfig()}).Network
	},
	func(eng *sim.Engine) *topology.Network {
		return &topology.NewDumbbell(eng, topology.DumbbellConfig{HostsPerSide: 3, Link: topology.DefaultLinkConfig()}).Network
	},
}

// tables maps switch, then destination host, to an equal-cost set.
type tables map[netem.NodeID]map[netem.NodeID][]*netem.Link

// oracle holds what the brute-force model needs from the undamaged
// network: every switch's healthy equal-cost sets, by its own search.
type oracle struct {
	net     *topology.Network
	healthy tables
}

// newOracle computes the healthy sets; call it before any link flips.
func newOracle(net *topology.Network) *oracle {
	o := &oracle{net: net}
	o.healthy = o.search()
	return o
}

// tables recomputes from scratch, for the current link states, what every
// (switch, host) lookup must answer and how many overrides Stats must
// report. Where the search agrees with the healthy set the row holds no
// override and answers the healthy set live-filtered.
func (o *oracle) tables() (want tables, overrides int) {
	want = o.search()
	for sw, sets := range want {
		for dst, healthy := range o.healthy[sw] {
			var structural []*netem.Link
			for _, l := range healthy {
				if !l.RouteDead() {
					structural = append(structural, l)
				}
			}
			if slices.Equal(sets[dst], healthy) {
				sets[dst] = structural
			} else if !slices.Equal(sets[dst], structural) {
				overrides++
			}
		}
	}
	return want, overrides
}

// search returns every switch's equal-cost set toward every host over the
// current route-live links: a reverse BFS per destination, never through
// another host.
func (o *oracle) search() tables {
	out := make(map[netem.NodeID][]*netem.Link)
	in := make(map[netem.NodeID][]*netem.Link)
	for _, l := range o.net.Links {
		out[l.Src().ID()] = append(out[l.Src().ID()], l)
		in[l.Dst().ID()] = append(in[l.Dst().ID()], l)
	}
	isHost := make(map[netem.NodeID]bool)
	for _, h := range o.net.Hosts {
		isHost[h.ID()] = true
	}
	sets := make(tables)
	for _, sw := range o.net.Switches {
		sets[sw.ID()] = make(map[netem.NodeID][]*netem.Link)
	}
	for _, h := range o.net.Hosts {
		dst := h.ID()
		// Reverse BFS over live links from dst, never through other hosts.
		dist := map[netem.NodeID]int{dst: 0}
		frontier := []netem.NodeID{dst}
		for len(frontier) > 0 {
			var next []netem.NodeID
			for _, v := range frontier {
				for _, l := range in[v] {
					u := l.Src().ID()
					if _, seen := dist[u]; seen || l.RouteDead() || isHost[u] {
						continue
					}
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
			frontier = next
		}
		for _, sw := range o.net.Switches {
			var eq []*netem.Link
			if d, ok := dist[sw.ID()]; ok {
				for _, l := range out[sw.ID()] {
					if nd, ok := dist[l.Dst().ID()]; ok && nd == d-1 && !l.RouteDead() {
						eq = append(eq, l)
					}
				}
			}
			sets[sw.ID()][dst] = eq
		}
	}
	return sets
}

// pathCount counts every path from host src to host dst that follows t,
// by exhaustive depth-first search from src's route-live uplinks; a
// switch met again on the way is a loop, not a path.
func (o *oracle) pathCount(t tables, src, dst netem.NodeID) int {
	onPath := make(map[netem.NodeID]bool)
	var walk func(id netem.NodeID) int
	walk = func(id netem.NodeID) int {
		if id == dst {
			return 1
		}
		if onPath[id] {
			return 0
		}
		onPath[id] = true
		total := 0
		for _, l := range t[id][dst] {
			total += walk(l.Dst().ID())
		}
		delete(onPath, id)
		return total
	}
	total := 0
	for _, up := range o.net.Hosts[src].Uplinks() {
		if !up.RouteDead() {
			total += walk(up.Dst().ID())
		}
	}
	return total
}

// runOracleProgram interprets prog on a fresh fabric and checks the
// control plane against the oracle after every batch. prog[0] picks the
// fabric (low two bits, modulo the fabric count, so 3 is the FatTree
// again) and the convergence mode (bit 2: staggered with
// PerHopDelay 0, which must behave exactly like atomic); bit 3 is unused,
// reserved so that committed corpus entries keep their meaning. The rest
// is a sequence of batches: one byte whose low two bits give the batch size
// 1-4, then two bytes per flip — a 15-bit link index (modulo the link
// count, so switch-switch and host access links alike) and a top bit
// that, when set, flips the reverse direction of the cable too. A flip
// toggles the link's route-dead state and invalidates it; the batch's
// coalesced recompute then fires from the engine, as in a run.
func runOracleProgram(t *testing.T, prog []byte) (recomputes int) {
	t.Helper()
	if len(prog) == 0 {
		return 0
	}
	eng := sim.NewEngine()
	net := oracleTopologies[int(prog[0]&3)%len(oracleTopologies)](eng)
	o := newOracle(net)
	cfg := Config{}
	if prog[0]&4 != 0 {
		cfg.Convergence = Staggered
	}
	cp, err := Install(eng, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	toggle := func(l *netem.Link) {
		l.SetRouteDead(!l.RouteDead())
		cp.Invalidate(l)
	}
	prog = prog[1:]
	for batch := 0; len(prog) >= 3; batch++ {
		n := 1 + int(prog[0])%4
		prog = prog[1:]
		for ; n > 0 && len(prog) >= 2; n-- {
			idx := (int(prog[0]&0x7f)<<8 | int(prog[1])) % len(net.Links)
			toggle(net.Links[idx])
			if prog[0]&0x80 != 0 {
				toggle(net.Links[idx^1]) // connect() appends cables as direction pairs
			}
			prog = prog[2:]
		}
		eng.Run()

		want, overrides := o.tables()
		for _, sw := range net.Switches {
			for _, h := range net.Hosts {
				if got := sw.Router().NextLinks(h.ID()); !slices.Equal(got, want[sw.ID()][h.ID()]) {
					t.Fatalf("batch %d: switch %d toward host %d answers %v, oracle says %v",
						batch, sw.ID(), h.ID(), got, want[sw.ID()][h.ID()])
				}
			}
		}
		// A sample of host pairs that moves with the batch.
		for src := batch % 3; src < len(net.Hosts); src += 3 {
			for dst := (batch + 1) % 5; dst < len(net.Hosts); dst += 5 {
				s, d := net.Hosts[src].ID(), net.Hosts[dst].ID()
				if s == d {
					continue
				}
				if got, count := net.PathCount(s, d), o.pathCount(want, s, d); got != count {
					t.Fatalf("batch %d: PathCount(%d, %d) = %d, oracle counts %d", batch, s, d, got, count)
				}
			}
		}
		st := cp.Stats()
		if st.Overrides != overrides {
			t.Fatalf("batch %d: Stats.Overrides = %d, oracle counts %d", batch, st.Overrides, overrides)
		}
		if st.TransientTime != 0 {
			t.Fatalf("batch %d: zero-delay staggering opened a %v transient window", batch, st.TransientTime)
		}
		recomputes = st.Recomputes
	}
	return recomputes
}

// oracleSeeds is the committed seed corpus: hand-written programs that
// walk the transitions the dense layout treats specially.
func oracleSeeds() map[string][]byte {
	const cable = 0x80 // selector high byte: flip both directions
	// batch encodes one batch from (high, low) link-selector byte pairs.
	batch := func(sel ...byte) []byte { return append([]byte{byte(len(sel)/2 - 1)}, sel...) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// Link indices. FatTree K=4: 0-31 host cables, 32-63 edge-agg, 64-95
	// agg-core (64 up, 65 down). Multihomed: 0-63 host (host 0 owns 0-3),
	// 64-95 edge-agg, 96-127 agg-core. Dumbbell: 0-11 host, 12-13
	// bottleneck.
	core0 := batch(cable, 64, cable, 72, cable, 80, cable, 88) // core 0's four cables
	return map[string][]byte{
		// One agg-core cable dies and heals, twice: overrides appear on a
		// handful of rows, vanish, and the second cycle reuses the
		// recycled storage.
		"fattree-cable-cycles": cat([]byte{0}, batch(cable, 64), batch(cable, 64), batch(cable, 64), batch(cable, 64)),
		// The same under zero-delay staggering: fork, inline flip, recycle.
		"fattree-cable-cycles-staggered": cat([]byte{4}, batch(cable, 64), batch(cable, 66), batch(cable, 64), batch(cable, 66)),
		// A whole-switch crash: core 0's four cables (one per pod) die in
		// one batch, heal in one, and die again.
		"fattree-core-crash":           cat([]byte{0}, core0, core0, core0),
		"fattree-core-crash-staggered": cat([]byte{4}, core0, core0, core0),
		// One direction only: the downlink core->agg dies, the uplink lives.
		"fattree-one-direction": cat([]byte{0}, batch(0, 65), batch(0, 64), batch(0, 65), batch(0, 64)),
		// Host access cables: the attachment signature changes, the
		// distance tables do not; a second dead host shares the empty
		// signature's cached table; then both heal in one batch.
		"fattree-host-cables": cat([]byte{0}, batch(cable, 0), batch(cable, 2), batch(cable, 0, cable, 2)),
		// A whole edge switch cut off from its aggs, then a host below it:
		// unreachable destinations get empty sets everywhere.
		"fattree-isolated-edge": cat([]byte{4}, batch(cable, 32, cable, 34), batch(cable, 0), batch(cable, 32), batch(cable, 34, cable, 0)),
		// Mixed batch of four, kills and revivals together.
		"fattree-mixed-batch": cat([]byte{0 | 8}, batch(cable, 64, cable, 40, 0, 1, cable, 90), batch(cable, 64, 0, 41, 0, 1, cable, 70), batch(0, 40, cable, 90, cable, 70)),
		// Dual-homed hosts: losing one of two access cables changes the
		// signature to a different non-empty one; losing both empties it.
		"multihomed-one-then-both": cat([]byte{1}, batch(cable, 0), batch(cable, 2), batch(cable, 0), batch(cable, 2)),
		"multihomed-staggered":     cat([]byte{5}, batch(cable, 0, cable, 70), batch(cable, 2, cable, 70), batch(cable, 0, cable, 2)),
		// Multihomed fabric and hosts: an edge uplink, a core cable, a
		// host access cable; then one direction at a time of an agg-core
		// cable beside an edge uplink.
		"multihomed-fabric-and-hosts": cat([]byte{1}, batch(cable, 64), batch(cable, 98, cable, 0), batch(cable, 64), batch(cable, 98, cable, 0)),
		"multihomed-fabric-staggered": cat([]byte{5 | 8}, batch(cable, 66, 0, 96), batch(0, 97), batch(cable, 66), batch(0, 96, 0, 97)),
		// Dumbbell: the bottleneck partitions the two sides, then a host
		// cable on top of it.
		"dumbbell-bottleneck": cat([]byte{2}, batch(cable, 12), batch(cable, 2), batch(cable, 12), batch(cable, 2)),
		"dumbbell-staggered":  cat([]byte{6 | 8}, batch(0, 12), batch(0, 13, cable, 4), batch(0, 12, 0, 13), batch(cable, 4)),
	}
}

// TestRecomputeMatchesOracle runs the seed corpus and a few hundred
// random programs against the oracle.
func TestRecomputeMatchesOracle(t *testing.T) {
	for name, prog := range oracleSeeds() {
		prog := prog
		t.Run(name, func(t *testing.T) {
			if n := runOracleProgram(t, prog); n < 3 {
				t.Errorf("seed fired %d recomputes, want at least 3", n)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := sim.NewRNG(11)
		for i := 0; i < 400; i++ {
			prog := make([]byte, 1+rng.Intn(240))
			for j := range prog {
				prog[j] = byte(rng.Uint32())
			}
			prog[0] = byte(i) // every fabric slot and mode, evenly
			runOracleProgram(t, prog)
		}
	})
}

// FuzzRecomputeMatchesOracle is the native fuzz target over flip programs.
func FuzzRecomputeMatchesOracle(f *testing.F) {
	for _, prog := range oracleSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<10 {
			t.Skip("longer programs only repeat states the oracle already rebuilt from scratch")
		}
		runOracleProgram(t, prog)
	})
}
