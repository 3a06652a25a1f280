package topology

import (
	"slices"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// referenceTables is the map-based reference the forwarding rows are
// checked against: for every switch, the full equal-cost shortest-path
// next-hop set toward every host, by breadth-first search from each host
// over the reversed link graph, every set in link order. A missing entry
// means no route.
func referenceTables(n *Network) map[netem.NodeID]map[netem.NodeID][]*netem.Link {
	out := make(map[netem.NodeID][]*netem.Link)
	in := make(map[netem.NodeID][]*netem.Link)
	for _, l := range n.Links {
		out[l.Src().ID()] = append(out[l.Src().ID()], l)
		in[l.Dst().ID()] = append(in[l.Dst().ID()], l)
	}
	tables := make(map[netem.NodeID]map[netem.NodeID][]*netem.Link, len(n.Switches))
	for _, sw := range n.Switches {
		tables[sw.ID()] = make(map[netem.NodeID][]*netem.Link)
	}
	// Hosts never forward: BFS treats every host other than the
	// destination as a dead end, so routes cannot tunnel through a
	// dual-homed server.
	isHost := make(map[netem.NodeID]bool, len(n.Hosts))
	for _, h := range n.Hosts {
		isHost[h.ID()] = true
	}
	for _, h := range n.Hosts {
		dst := h.ID()
		dist := map[netem.NodeID]int32{dst: 0}
		frontier := []netem.NodeID{dst}
		for len(frontier) > 0 {
			var next []netem.NodeID
			for _, v := range frontier {
				for _, l := range in[v] {
					u := l.Src().ID()
					if isHost[u] && u != dst {
						continue
					}
					if _, seen := dist[u]; !seen {
						dist[u] = dist[v] + 1
						next = append(next, u)
					}
				}
			}
			frontier = next
		}
		for _, sw := range n.Switches {
			d, ok := dist[sw.ID()]
			if !ok {
				continue
			}
			var eq []*netem.Link
			for _, l := range out[sw.ID()] {
				if nd, ok := dist[l.Dst().ID()]; ok && nd == d-1 {
					eq = append(eq, l)
				}
			}
			if len(eq) > 0 {
				tables[sw.ID()][dst] = eq
			}
		}
	}
	return tables
}

// referencePathCount counts every path from host src to host dst that
// follows the reference tables, by exhaustive depth-first search.
func referencePathCount(n *Network, tables map[netem.NodeID]map[netem.NodeID][]*netem.Link, src, dst netem.NodeID) int {
	var walk func(id netem.NodeID) int
	walk = func(id netem.NodeID) int {
		if id == dst {
			return 1
		}
		total := 0
		for _, l := range tables[id][dst] {
			total += walk(l.Dst().ID())
		}
		return total
	}
	total := 0
	for _, up := range n.Hosts[src].Uplinks() {
		total += walk(up.Dst().ID())
	}
	return total
}

// checkRowsMatchReference compares every (switch, host) answer of n's
// rows with the reference tables, link by link and in order: ECMP picks
// set[hash % len(set)], so the same links in another order would move
// flows.
func checkRowsMatchReference(t *testing.T, n *Network) {
	t.Helper()
	ref := referenceTables(n)
	for _, sw := range n.Switches {
		for _, h := range n.Hosts {
			if got, want := sw.Router().NextLinks(h.ID()), ref[sw.ID()][h.ID()]; !slices.Equal(got, want) {
				t.Fatalf("%s: switch %d -> host %d: row answers %v, reference %v", n.Kind, sw.ID(), h.ID(), got, want)
			}
		}
	}
}

// TestFatTreeStructuredRoutingMatchesBFS checks the rows the FatTree
// fills from its structure against the reference search.
func TestFatTreeStructuredRoutingMatchesBFS(t *testing.T) {
	eng := sim.NewEngine()
	for _, cfg := range []FatTreeConfig{
		{K: 4, HostsPerEdge: 3, Link: DefaultLinkConfig()},
		{K: 6, Link: DefaultLinkConfig()},
		{K: 2, HostsPerEdge: 1, Link: DefaultLinkConfig()},
	} {
		checkRowsMatchReference(t, &NewFatTree(eng, cfg).Network)
	}
}

// TestBFSRowsMatchReference checks the rows every other builder fills by
// its dense breadth-first search against the map-based reference.
func TestBFSRowsMatchReference(t *testing.T) {
	eng := sim.NewEngine()
	link := DefaultLinkConfig()
	for _, n := range []*Network{
		&NewMultiHomed(eng, MultiHomedConfig{K: 4, HostsPerEdge: 1, Link: link}).Network,
		&NewMultiHomed(eng, MultiHomedConfig{K: 4, HostsPerEdge: 2, Link: link}).Network,
		&NewMultiHomed(eng, MultiHomedConfig{K: 4, HostsPerEdge: 3, Link: link}).Network,
		&NewMultiHomed(eng, MultiHomedConfig{K: 6, Link: link}).Network,
		&NewDumbbell(eng, DumbbellConfig{HostsPerSide: 3, Link: link}).Network,
	} {
		checkRowsMatchReference(t, n)
	}
}
