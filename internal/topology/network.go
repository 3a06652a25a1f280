// Package topology builds the simulated data-centre networks the paper's
// experiments run on: k-ary FatTrees with configurable over-subscription
// (the paper's setup is a 512-server, 4:1 over-subscribed FatTree), a
// dual-homed FatTree variant (the paper's future-work topology), and a
// dumbbell used by unit tests and the coexistence experiments.
//
// Each topology provides hash-based ECMP routing (structured routers for
// the FatTree, breadth-first-search equal-cost tables for everything
// else) and a PathCount oracle that MMPTCP's packet-scatter phase uses to
// derive its dynamic duplicate-ACK threshold — the paper's "FatTree IP
// addressing scheme can be exploited to calculate the number of available
// paths" proposal.
package topology

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
)

// LinkConfig carries the physical parameters shared by all builders.
type LinkConfig struct {
	RateBps      int64    // link bandwidth in bits/s
	Delay        sim.Time // per-link propagation delay
	QueueLimit   int      // drop-tail queue capacity in packets
	ECNThreshold int      // DCTCP-style marking threshold; 0 disables

	// HostEgressQueue sizes the host->switch direction of access links.
	// A real sender does not drop its own packets at its NIC — the
	// qdisc backpressures — so this should be much deeper than switch
	// ports. 0 means 32x QueueLimit.
	HostEgressQueue int
}

// DefaultLinkConfig mirrors the parameter regime of the paper's
// literature (100 Mb/s links, 20 us per hop, 100-packet buffers).
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		RateBps:    100_000_000,
		Delay:      20 * sim.Microsecond,
		QueueLimit: 100,
	}
}

// Validate reports the first field no link can be built from. Zero
// fields are fine: they take defaults.
func (c LinkConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"RateBps", c.RateBps}, {"Delay", int64(c.Delay)}, {"QueueLimit", int64(c.QueueLimit)},
		{"ECNThreshold", int64(c.ECNThreshold)}, {"HostEgressQueue", int64(c.HostEgressQueue)},
	} {
		if f.v < 0 {
			return fmt.Errorf("topology: negative link %s %d", f.name, f.v)
		}
	}
	return nil
}

func (c *LinkConfig) applyDefaults() {
	d := DefaultLinkConfig()
	if c.RateBps == 0 {
		c.RateBps = d.RateBps
	}
	if c.Delay == 0 {
		c.Delay = d.Delay
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = d.QueueLimit
	}
	if c.HostEgressQueue == 0 {
		c.HostEgressQueue = 32 * c.QueueLimit
	}
}

// Network is a built topology: hosts, switches, every unidirectional
// link (for statistics), and a path-count oracle.
type Network struct {
	Eng      *sim.Engine
	Hosts    []*netem.Host
	Switches []*netem.Switch
	Links    []*netem.Link
	Kind     string

	// Pool is the packet free list shared by every node and link of the
	// network (see installPool); exposed for benchmarks that assert the
	// recycle rate.
	Pool *netem.PacketPool

	// routers keeps each switch's effective router so that path counting
	// can follow the ECMP DAG (netem.Switch deliberately hides it). The
	// routing control plane swaps wrapped routers in via WrapRouters.
	routers map[netem.NodeID]netem.Router

	// baseRouters snapshots each switch's as-built router (parallel to
	// Switches, captured by validate) so Reset can unwind whatever a
	// routing control plane wrapped around it.
	baseRouters []netem.Router

	// hashSalt recreates the builder's per-switch ECMP hash seed stream
	// when a pooled network is reused under a new experiment seed;
	// hashSeeded marks builders that derive switch seeds from the seed
	// at all (the dumbbell's fixed seeds never change).
	hashSalt   uint64
	hashSeeded bool

	// pathCount returns the number of distinct equal-cost paths between
	// two hosts on the healthy network; see PathCount.
	pathCount func(src, dst netem.NodeID) int

	// routes tallies the links currently excluded from routing (every
	// link is enrolled at build). Routers filter against it, and while it
	// is non-zero PathCount follows the live routing DAG instead of the
	// static oracle.
	routes netem.RouteState

	// switchSlab and linkSlab hold the fabric's switches and links by
	// value (see alloc); Switches and Links point into them.
	switchSlab []netem.Switch
	linkSlab   []netem.Link

	// partitionHint, when set by a builder, maps a shard count to a
	// per-switch shard assignment exploiting the topology's structure
	// (the FatTree keeps pods whole). Nil means Partition's generic
	// contiguous split. Returning nil from the hint also falls back.
	partitionHint func(shards int) []int
}

// alloc allocates the fabric's hosts, switches and links as one slab per
// kind, sizes the pointer slices to match, and creates the hosts: every
// builder numbers them 0..hosts-1 and its switches from there, in
// creation order. addSwitch, connect and connectHost hand out the rest; a
// builder that miscounted panics on the slab's bounds.
func (n *Network) alloc(eng *sim.Engine, hosts, switches, links int) {
	n.Eng = eng
	slab := make([]netem.Host, hosts)
	n.Hosts = make([]*netem.Host, hosts)
	for i := range slab {
		n.Hosts[i] = slab[i].Init(eng, netem.NodeID(i))
	}
	n.switchSlab = make([]netem.Switch, switches)
	n.Switches = make([]*netem.Switch, 0, switches)
	n.linkSlab = make([]netem.Link, links)
	n.Links = make([]*netem.Link, 0, links)
}

// addSwitch creates the next switch.
func (n *Network) addSwitch(seed uint32) *netem.Switch {
	i := len(n.Switches)
	sw := n.switchSlab[i].Init(n.Eng, netem.NodeID(len(n.Hosts)+i), seed)
	n.Switches = append(n.Switches, sw)
	return sw
}

// liveLinks returns a route-dead filter for one router of this network.
func (n *Network) liveLinks() netem.LiveLinks { return netem.LiveLinks{Routes: &n.routes} }

// setRouter installs a router on a switch and records it for path
// counting.
func (n *Network) setRouter(sw *netem.Switch, r netem.Router) {
	sw.SetRouter(r)
	if n.routers == nil {
		n.routers = make(map[netem.NodeID]netem.Router)
	}
	n.routers[sw.ID()] = r
}

// PathCount returns the number of distinct shortest paths between two
// hosts. MMPTCP uses it to size the packet-scatter duplicate-ACK
// threshold. It returns 1 when src == dst or when the oracle is missing.
//
// On a healthy network the static oracle answers (for the FatTree, the
// paper's addressing formula — allocation-free). While any link is
// excluded from routing the count instead follows the live ECMP DAG
// through the installed routers, so dead paths no longer inflate the
// duplicate-ACK threshold of flows dialed during a failure.
func (n *Network) PathCount(src, dst netem.NodeID) int {
	if src == dst || n.pathCount == nil {
		return 1
	}
	if n.routes.Dead() > 0 {
		return countShortestPaths(n, src, dst)
	}
	return n.pathCount(src, dst)
}

// WrapRouters replaces every switch's router with wrap(switch, current),
// in builder order, updating both the forwarding plane and the router
// view that path counting follows. The routing control plane uses this
// to interpose its override tables in front of the structural routers.
func (n *Network) WrapRouters(wrap func(sw *netem.Switch, base netem.Router) netem.Router) {
	for _, sw := range n.Switches {
		n.setRouter(sw, wrap(sw, n.routers[sw.ID()]))
	}
}

// Host returns the host with index i (hosts are numbered 0..len-1 and
// host index equals NodeID by construction in all builders).
func (n *Network) Host(i int) *netem.Host { return n.Hosts[i] }

// LinksAtLayer returns all unidirectional links whose layer matches.
func (n *Network) LinksAtLayer(layer netem.Layer) []*netem.Link {
	var out []*netem.Link
	for _, l := range n.Links {
		if l.Layer() == layer {
			out = append(out, l)
		}
	}
	return out
}

// link creates the next unidirectional link and records it in n.Links.
func (n *Network) link(a, b netem.Node, cfg LinkConfig, limit int, layer netem.Layer) *netem.Link {
	l := n.linkSlab[len(n.Links)].Init(n.Eng, a, b, cfg.RateBps, cfg.Delay, limit, layer)
	l.ECNThreshold = cfg.ECNThreshold
	l.Routes = &n.routes
	n.Links = append(n.Links, l)
	return l
}

// connect wires a full-duplex cable between a and b as two unidirectional
// links with identical parameters.
func (n *Network) connect(a, b netem.Node, cfg LinkConfig, layer netem.Layer) (ab, ba *netem.Link) {
	return n.link(a, b, cfg, cfg.QueueLimit, layer), n.link(b, a, cfg, cfg.QueueLimit, layer)
}

// connectHost wires a host's access cable: the host->switch direction
// gets the deep host-egress queue (a sender backpressures rather than
// dropping its own packets), the switch->host direction a normal switch
// port queue.
func (n *Network) connectHost(h, sw netem.Node, cfg LinkConfig, layer netem.Layer) (up, down *netem.Link) {
	return n.link(h, sw, cfg, cfg.HostEgressQueue, layer), n.link(sw, h, cfg, cfg.QueueLimit, layer)
}

// lastLinkSet returns the most recently created link as a single-element
// equal-cost set carved from n.Links (sized by alloc, so never moved)
// rather than allocated: a structured router holds one per down port.
func (n *Network) lastLinkSet() []*netem.Link {
	i := len(n.Links) - 1
	return n.Links[i : i+1 : i+1]
}

// TableRouter is a routing table mapping destination host to an
// equal-cost set of output links. It implements netem.Router.
type TableRouter struct {
	table map[netem.NodeID][]*netem.Link
	live  netem.LiveLinks
}

// NextLinks implements netem.Router. Links excluded by failure
// reconvergence are filtered out; the set may be empty while every
// candidate is dead.
func (r *TableRouter) NextLinks(dst netem.NodeID) []*netem.Link {
	return r.live.Filter(r.table[dst])
}

// buildECMPTables computes, for every switch, the full equal-cost
// shortest-path next-hop sets toward every host, by breadth-first search
// from each host over the reversed link graph. It installs a TableRouter
// on each switch. This is the generic fallback used by non-FatTree
// topologies, and the reference implementation the FatTree's structured
// routers are tested against.
func buildECMPTables(n *Network) {
	// Adjacency: outgoing links per node.
	out := make(map[netem.NodeID][]*netem.Link)
	// Incoming links per node (reversed graph).
	in := make(map[netem.NodeID][]*netem.Link)
	for _, l := range n.Links {
		out[l.Src().ID()] = append(out[l.Src().ID()], l)
		in[l.Dst().ID()] = append(in[l.Dst().ID()], l)
	}

	routers := make(map[netem.NodeID]*TableRouter, len(n.Switches))
	for _, sw := range n.Switches {
		r := &TableRouter{table: make(map[netem.NodeID][]*netem.Link), live: n.liveLinks()}
		routers[sw.ID()] = r
		n.setRouter(sw, r)
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
		dist := make(map[netem.NodeID]int32)
		frontier := []netem.NodeID{dst}
		dist[dst] = 0
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
				nd, ok := dist[l.Dst().ID()]
				if ok && nd == d-1 {
					eq = append(eq, l)
				}
			}
			if len(eq) > 0 {
				routers[sw.ID()].table[dst] = eq
			}
		}
	}
}

// countShortestPaths returns the number of distinct shortest paths from
// src to dst host following the installed routing tables. It is used as
// the generic path-count oracle (and as the reference the FatTree formula
// is tested against). The count follows the ECMP DAG, so it reflects the
// paths packets can actually take.
//
// The walk must tolerate cycles: under staggered convergence the
// switches momentarily disagree about the tables (each FIB flips at its
// own time), and a stale switch can point back at one that already
// flipped — the forwarding micro-loop the data plane counts as
// LoopDrops. A node revisited while still on the DFS stack contributes
// zero paths (a loop is not a way to the destination) instead of
// recursing forever.
func countShortestPaths(n *Network, src, dst netem.NodeID) int {
	if src == dst {
		return 1
	}
	// The first hop from a host is its uplink(s); afterwards, follow
	// each switch's equal-cost set. Memoised DFS; inProgress marks nodes
	// on the active stack so transient routing cycles terminate. A count
	// computed beneath a cycle is stack-dependent (it excluded whatever
	// ancestors happened to be in progress), so it is returned but NOT
	// memoised — only cycle-free subgraphs cache, which keeps the walk
	// exact on mixed-epoch tables at the cost of re-visiting the few
	// nodes that can reach a loop.
	const inProgress = -1
	memo := make(map[netem.NodeID]int)
	var visit func(id netem.NodeID) (int, bool)
	visit = func(id netem.NodeID) (int, bool) {
		if id == dst {
			return 1, false
		}
		if v, ok := memo[id]; ok {
			if v == inProgress {
				return 0, true
			}
			return v, false
		}
		r, ok := n.routers[id]
		if !ok {
			return 0, false
		}
		memo[id] = inProgress
		total, tainted := 0, false
		for _, l := range r.NextLinks(dst) {
			c, t := visit(l.Dst().ID())
			total += c
			tainted = tainted || t
		}
		if tainted {
			delete(memo, id)
		} else {
			memo[id] = total
		}
		return total, tainted
	}
	total := 0
	for _, up := range n.Hosts[src].Uplinks() {
		// A route-dead access link contributes no paths: the sender's
		// own NIC link is as much a part of the live DAG as the fabric.
		if up.RouteDead() {
			continue
		}
		c, _ := visit(up.Dst().ID())
		total += c
	}
	return total
}

// validate panics if the network is structurally broken; builders call it
// before returning. It checks that every host has at least one uplink,
// then finishes construction by wiring the shared packet pool and
// snapshotting the as-built routers for Reset.
func (n *Network) validate() {
	for i, h := range n.Hosts {
		if len(h.Uplinks()) == 0 {
			panic(fmt.Sprintf("topology: host %d has no uplink", i))
		}
	}
	n.installPool()
	n.baseRouters = make([]netem.Router, len(n.Switches))
	for i, sw := range n.Switches {
		n.baseRouters[i] = n.routers[sw.ID()]
	}
}

// setHashSalt records the seed-stream salt a builder used to derive
// per-switch ECMP hash seeds (sim.NewRNG(seed ^ salt), one Uint32 per
// switch in creation order), enabling Reset to re-key a recycled
// network to a new experiment seed exactly as a fresh build would.
func (n *Network) setHashSalt(salt uint64) {
	n.hashSalt = salt
	n.hashSeeded = true
}

// Reset restores a built network to its pristine state for reuse by
// another run sharing the same shape (run-instance pooling): every
// switch's counters, crash state and as-built router; every link's
// queue, fault/degradation state and statistics; every host's endpoint
// table and counters. When the builder derived per-switch ECMP hash seeds
// from the experiment seed, they are re-derived for the new seed, so a
// recycled network is observationally identical to one freshly built with
// it (links keep whatever queue capacity they grew). The shared
// packet pool keeps its free list — that reuse is the point — and the
// steady-state Reset path allocates nothing.
//
// The caller owns the engine half of the contract: Reset drops no
// events, so it must follow (or precede) sim.Engine.Reset, which
// discards the in-flight deliveries referencing this network.
func (n *Network) Reset(seed uint64) {
	for i, sw := range n.Switches {
		sw.Reset()
		n.setRouter(sw, n.baseRouters[i])
	}
	for _, l := range n.Links {
		l.Reset()
	}
	for _, h := range n.Hosts {
		h.Reset()
	}
	if n.hashSeeded {
		var rng sim.RNG
		rng.Reseed(seed^n.hashSalt, 0)
		for _, sw := range n.Switches {
			sw.SetSeed(rng.Uint32())
		}
	}
}

// installPool attaches one packet free list to every host, switch and
// link of the built network: transports allocate outgoing packets from
// it (via Host.NewPacket) and every terminal point — host delivery,
// switch drops, queue drops, blackholes — recycles into it, making the
// steady-state data path allocation-free.
func (n *Network) installPool() {
	if n.Pool == nil {
		n.Pool = netem.NewPacketPool()
	}
	for _, h := range n.Hosts {
		h.SetPool(n.Pool)
	}
	for _, sw := range n.Switches {
		sw.SetPool(n.Pool)
	}
	for _, l := range n.Links {
		l.SetPool(n.Pool)
	}
}
