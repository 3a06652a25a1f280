package routing

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The differential test below drives the control plane with random
// link-flip programs and, after every recompute, compares every
// (switch, host) lookup and the override count with a brute-force oracle.
// The oracle is the layout the dense tables replaced — maps keyed by
// NodeID, a fresh reverse BFS per destination, no caching, no skipping,
// nothing incremental — and lives only here: it is what the answers
// mean, not a second code path.

// oracleTopologies are the fabrics the programs run on: one per builder.
var oracleTopologies = []func(eng *sim.Engine) *topology.Network{
	func(eng *sim.Engine) *topology.Network {
		return &topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()}).Network
	},
	func(eng *sim.Engine) *topology.Network {
		return &topology.NewVL2(eng, topology.VL2Config{DA: 4, DI: 2, HostsPerToR: 2, Link: topology.DefaultLinkConfig()}).Network
	},
	func(eng *sim.Engine) *topology.Network {
		return &topology.NewMultiHomed(eng, topology.MultiHomedConfig{K: 4, Link: topology.DefaultLinkConfig()}).Network
	},
	func(eng *sim.Engine) *topology.Network {
		return &topology.NewDumbbell(eng, topology.DumbbellConfig{HostsPerSide: 3, Link: topology.DefaultLinkConfig()}).Network
	},
}

// oracle holds what the brute-force model needs from the undamaged
// network: each switch's structural router and its healthy answers.
type oracle struct {
	net     *topology.Network
	base    map[netem.NodeID]netem.Router
	healthy map[netem.NodeID]map[netem.NodeID][]*netem.Link
}

// newOracle snapshots the structural routers; call it before Install
// wraps them.
func newOracle(net *topology.Network) *oracle {
	o := &oracle{
		net:     net,
		base:    make(map[netem.NodeID]netem.Router),
		healthy: make(map[netem.NodeID]map[netem.NodeID][]*netem.Link),
	}
	for _, sw := range net.Switches {
		o.base[sw.ID()] = sw.Router()
		o.healthy[sw.ID()] = make(map[netem.NodeID][]*netem.Link)
		for _, h := range net.Hosts {
			o.healthy[sw.ID()][h.ID()] = append([]*netem.Link(nil), sw.Router().NextLinks(h.ID())...)
		}
	}
	return o
}

// tables recomputes from scratch, for the current link states, what every
// (switch, host) lookup must answer and how many overrides Stats must
// report.
func (o *oracle) tables() (want map[netem.NodeID]map[netem.NodeID][]*netem.Link, overrides int) {
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
	want = make(map[netem.NodeID]map[netem.NodeID][]*netem.Link)
	for _, sw := range o.net.Switches {
		want[sw.ID()] = make(map[netem.NodeID][]*netem.Link)
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
			structural := o.base[sw.ID()].NextLinks(dst)
			if sameLinks(eq, o.healthy[sw.ID()][dst]) {
				// No override: the structural router answers, live-filtered.
				eq = structural
			} else if !sameLinks(eq, structural) {
				overrides++
			}
			want[sw.ID()][dst] = eq
		}
	}
	return want, overrides
}

// runOracleProgram interprets prog on a fresh fabric and checks the
// control plane against the oracle after every batch. prog[0] picks the
// fabric (low two bits) and the convergence mode (bit 2: staggered with
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
	net := oracleTopologies[int(prog[0])%len(oracleTopologies)](eng)
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
				if got := sw.Router().NextLinks(h.ID()); !sameLinks(got, want[sw.ID()][h.ID()]) {
					t.Fatalf("batch %d: switch %d toward host %d answers %v, oracle says %v",
						batch, sw.ID(), h.ID(), got, want[sw.ID()][h.ID()])
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
	// agg-core (64 up, 65 down). VL2: 0-31 host, 32-63 ToR-agg, 64-79
	// agg-intermediate. Multihomed: 0-63 host (host 0 owns 0-3), 64-95
	// edge-agg, 96-127 agg-core. Dumbbell: 0-11 host, 12-13 bottleneck.
	return map[string][]byte{
		// One agg-core cable dies and heals, twice: overrides appear on a
		// handful of FIBs, vanish, and the second cycle reuses the
		// recycled tables.
		"fattree-cable-cycles": cat([]byte{0}, batch(cable, 64), batch(cable, 64), batch(cable, 64), batch(cable, 64)),
		// The same under zero-delay staggering: fork, inline flip, recycle.
		"fattree-cable-cycles-staggered": cat([]byte{4}, batch(cable, 64), batch(cable, 66), batch(cable, 64), batch(cable, 66)),
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
		// VL2: a ToR uplink, an intermediate's cable, a server link.
		"vl2-fabric-and-hosts": cat([]byte{1}, batch(cable, 32), batch(cable, 66, cable, 0), batch(cable, 32), batch(cable, 66, cable, 0)),
		"vl2-staggered":        cat([]byte{5 | 8}, batch(cable, 34, 0, 64), batch(0, 65), batch(cable, 34), batch(0, 64, 0, 65)),
		// Dual-homed hosts: losing one of two access cables changes the
		// signature to a different non-empty one; losing both empties it.
		"multihomed-one-then-both": cat([]byte{2}, batch(cable, 0), batch(cable, 2), batch(cable, 0), batch(cable, 2)),
		"multihomed-staggered":     cat([]byte{6}, batch(cable, 0, cable, 70), batch(cable, 2, cable, 70), batch(cable, 0, cable, 2)),
		// Dumbbell: the bottleneck partitions the two sides, then a host
		// cable on top of it.
		"dumbbell-bottleneck": cat([]byte{3}, batch(cable, 12), batch(cable, 2), batch(cable, 12), batch(cable, 2)),
		"dumbbell-staggered":  cat([]byte{7 | 8}, batch(0, 12), batch(0, 13, cable, 4), batch(0, 12, 0, 13), batch(cable, 4)),
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
			prog[0] = byte(i) // every fabric, mode and worker count, evenly
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
