// Package topology builds the simulated data-centre networks the paper's
// experiments run on: k-ary FatTrees with configurable over-subscription
// (the paper's setup is a 512-server, 4:1 over-subscribed FatTree), a
// dual-homed FatTree variant (the paper's future-work topology), and a
// dumbbell used by unit tests and the coexistence experiments.
//
// Every builder fills one dense forwarding table that hash-based ECMP
// forwards on: per switch a netem.Row, a few distinct equal-cost sets and
// a set index per destination host. The FatTree fills its rows from its
// structure; every other topology with one reverse breadth-first search
// per destination over its Graph, the adjacency the routing control plane
// recomputes on as well. PathCount, from which MMPTCP's packet-scatter
// phase derives its dynamic duplicate-ACK threshold, answers a healthy
// FatTree with the paper's formula — its "FatTree IP addressing scheme
// can be exploited to calculate the number of available paths" proposal —
// and anything else by walking the rows.
package topology

import (
	"fmt"
	"slices"

	"repro/internal/netem"
	"repro/internal/sim"
)

// LinkConfig carries the physical parameters shared by all builders.
type LinkConfig struct {
	RateBps      int64    // link bandwidth in bits/s
	Delay        sim.Time // per-link propagation delay
	QueueLimit   int      // drop-tail queue capacity in packets
	ECNThreshold int      // DCTCP-style marking threshold; 0 disables
}

// hostEgressDepth sizes the host->switch direction of access links, in
// multiples of QueueLimit. A real sender does not drop its own packets
// at its NIC — the qdisc backpressures — so this is much deeper than
// switch ports.
const hostEgressDepth = 32

// DefaultLinkConfig is the paper's link: 100 Mb/s with 20 µs of
// propagation delay per hop, and a 30-packet drop-tail buffer per port:
// ~3.6 ms of drain at 100 Mb/s, deep enough for bursts, small enough that
// short flows are not buried in bufferbloat — the regime in which the
// paper's dynamics (loss -> RTO tails for MPTCP's small subflow windows,
// reordering-tolerant scatter for MMPTCP) play out. ECN marking is off.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		RateBps:    100_000_000,
		Delay:      20 * sim.Microsecond,
		QueueLimit: 30,
	}
}

// Fabric size bounds, checked by every builder's Validate before anything
// is allocated. The forwarding table holds one int32 set index per
// (switch, host) pair, so MaxTableEntries caps switches × hosts at 64 Mi
// entries (256 MB of table); MaxLinks caps the link slab, which the table
// does not bound where few switches carry many hosts (a K=2 FatTree or a
// dumbbell with hundreds of thousands of hosts per switch). The K=16,
// 3,456-host FatTree needs 1.1 Mi entries and 11 Ki links.
const (
	MaxTableEntries = 1 << 26
	MaxLinks        = 1 << 20
)

// checkSize rejects a fabric whose forwarding table or link slab would
// exceed the bounds. Counts are float64 so absurd configs cannot
// overflow on the way to being rejected.
func checkSize(hosts, switches, links float64) error {
	if n := hosts * switches; n > MaxTableEntries {
		return fmt.Errorf("topology: %.4g hosts × %.4g switches need a %.4g-entry forwarding table, above the %d bound",
			hosts, switches, n, MaxTableEntries)
	}
	if links > MaxLinks {
		return fmt.Errorf("topology: %.4g links, above the %d bound", links, MaxLinks)
	}
	return nil
}

// Network is a built topology: hosts, switches (each with its forwarding
// row), every unidirectional link (for statistics), and a path-count
// oracle.
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

	// hashSalt recreates the builder's per-switch ECMP hash seed stream
	// when a pooled network is reused under a new experiment seed;
	// hashSeeded marks builders that derive switch seeds from the seed
	// at all (the dumbbell's fixed seeds never change).
	hashSalt   uint64
	hashSeeded bool

	// pathCount, when set, answers PathCount on the healthy network by
	// formula instead of a walk.
	pathCount func(src, dst netem.NodeID) int

	// routes tallies the links currently excluded from routing (every
	// link is enrolled at build) and the switches holding a staged row.
	routes netem.RouteState

	// graph is the adjacency, built on first use (see Graph); memo is
	// PathCount's per-switch scratch.
	graph *Graph
	memo  []int

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

// rows returns the forwarding table's dense index array, one row of a
// set index per host for each switch, all zero; row carves switch i's.
func (n *Network) rows() (row func(i int) []int32) {
	h := len(n.Hosts)
	idx := make([]int32, len(n.Switches)*h)
	return func(i int) []int32 { return idx[i*h : (i+1)*h : (i+1)*h] }
}

// PathCount returns the number of distinct paths between two hosts that
// forwarding can take: 1 when src == dst or the network has no switches
// (a hand-assembled stub with nothing to walk), 0 when none is left.
// MMPTCP uses it to size the packet-scatter duplicate-ACK threshold.
//
// A healthy FatTree answers by the paper's addressing formula. Everything
// else — other topologies, or any network while a link is excluded from
// routing, so dead paths no longer inflate the duplicate-ACK threshold of
// flows dialed during a failure — walks exactly the rows Switch.Receive
// looks up, from each of src's route-live uplinks.
func (n *Network) PathCount(src, dst netem.NodeID) int {
	if src == dst || len(n.Switches) == 0 {
		return 1
	}
	if n.routes.Dead() == 0 && n.pathCount != nil {
		return n.pathCount(src, dst)
	}
	if n.memo == nil {
		n.memo = make([]int, len(n.Switches))
	}
	clear(n.memo)
	total := 0
	for _, up := range n.Hosts[src].Uplinks() {
		if !up.RouteDead() {
			c, _ := n.paths(up.Dst().ID(), dst)
			total += c
		}
	}
	return total
}

// onStack marks a switch of PathCount's walk on the active stack; memo
// otherwise holds a finished switch's count plus one, or 0 if unvisited.
const onStack = -1

// paths counts the forwarding paths from node id to host dst, depth first.
// The walk must tolerate cycles: under staggered convergence the switches
// momentarily disagree (each row flips at its own time), and a stale
// switch can point back at one that already flipped — the forwarding
// micro-loop the data plane counts as LoopDrops. A switch met again while
// on the stack contributes zero paths (a loop is not a way to the
// destination) and taints the counts above it: a tainted count depends on
// the stack, so it is returned but not memoised.
func (n *Network) paths(id, dst netem.NodeID) (count int, tainted bool) {
	if id == dst {
		return 1, false
	}
	i := int(id) - len(n.Hosts)
	if i < 0 { // another host: hosts never forward
		return 0, false
	}
	switch m := n.memo[i]; {
	case m == onStack:
		return 0, true
	case m > 0:
		return m - 1, false
	}
	n.memo[i] = onStack
	for _, l := range n.Switches[i].Router().NextLinks(dst) {
		c, t := n.paths(l.Dst().ID(), dst)
		count += c
		tainted = tainted || t
	}
	n.memo[i] = count + 1
	if tainted {
		n.memo[i] = 0
	}
	return count, tainted
}

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
	return n.link(h, sw, cfg, hostEgressDepth*cfg.QueueLimit, layer), n.link(sw, h, cfg, cfg.QueueLimit, layer)
}

// lastLinkSet returns the most recently created link as a single-element
// equal-cost set carved from n.Links (sized by alloc, so never moved)
// rather than allocated: a FatTree row holds one per down port.
func (n *Network) lastLinkSet() []*netem.Link {
	i := len(n.Links) - 1
	return n.Links[i : i+1 : i+1]
}

// Graph is a network's adjacency by NodeID — hosts 0..H-1, then the
// switches in builder order — with the reverse breadth-first search and
// the equal-cost derivation that fill and recompute forwarding rows.
type Graph struct {
	Out, In [][]Hop // each node's outgoing and incoming links

	hosts          int
	frontier, next []netem.NodeID
}

// Hop is one adjacency entry: a link and the NodeID at its far end, so
// the inner loops never call through the netem.Node interface.
type Hop struct {
	L  *netem.Link
	ID netem.NodeID
}

// Graph returns the network's adjacency, built on first use. Every link
// must join two of the network's nodes.
func (n *Network) Graph() *Graph {
	if n.graph != nil {
		return n.graph
	}
	nodes := len(n.Hosts) + len(n.Switches)
	outDeg, inDeg := make([]int, nodes), make([]int, nodes)
	for _, l := range n.Links {
		outDeg[l.Src().ID()]++
		inDeg[l.Dst().ID()]++
	}
	g := &Graph{Out: carveHops(outDeg, len(n.Links)), In: carveHops(inDeg, len(n.Links)), hosts: len(n.Hosts)}
	for _, l := range n.Links {
		u, v := l.Src().ID(), l.Dst().ID()
		g.Out[u] = append(g.Out[u], Hop{l, v})
		g.In[v] = append(g.In[v], Hop{l, u})
	}
	n.graph = g
	return g
}

// carveHops returns one empty hop list per node, of capacity deg[v],
// carved from a single backing array.
func carveHops(deg []int, total int) [][]Hop {
	flat, lists := make([]Hop, total), make([][]Hop, len(deg))
	for v, d := range deg {
		lists[v], flat = flat[:0:d], flat[d:]
	}
	return lists
}

// Distances fills dist, an all-zero table indexed by NodeID, with hop
// counts from every switch to host dst over route-live links: 1 for the
// source of a live access downlink, 0 for unreached. It never expands
// through a host.
func (g *Graph) Distances(dist []int32, dst netem.NodeID) {
	frontier := g.frontier[:0]
	for _, h := range g.In[dst] {
		if dist[h.ID] == 0 && !h.L.RouteDead() {
			dist[h.ID] = 1
			frontier = append(frontier, h.ID)
		}
	}
	next := g.next[:0]
	for len(frontier) > 0 {
		next = next[:0]
		for _, v := range frontier {
			d := dist[v] + 1
			for _, h := range g.In[v] {
				if int(h.ID) < g.hosts || dist[h.ID] != 0 || h.L.RouteDead() {
					continue
				}
				dist[h.ID] = d
				next = append(next, h.ID)
			}
		}
		frontier, next = next, frontier
	}
	g.frontier, g.next = frontier[:0], next[:0]
}

// EqualCost appends to eq switch sw's equal-cost next hops toward host
// dst under Distances' dist: its route-live links whose far end is one
// hop nearer, in link order.
func (g *Graph) EqualCost(eq []*netem.Link, sw, dst netem.NodeID, dist []int32) []*netem.Link {
	// Distance 0 is dst itself (dist's own zeroes mean unreached).
	near := dist[sw] - 1
	if near < 0 {
		return eq
	}
	for _, h := range g.Out[sw] {
		if h.ID == dst {
			if near != 0 {
				continue
			}
		} else if near == 0 || dist[h.ID] != near {
			continue
		}
		if !h.L.RouteDead() {
			eq = append(eq, h.L)
		}
	}
	return eq
}

// fillRows fills every switch's row with one reverse breadth-first search
// per destination host: the builders' generic path, exact on any graph.
// A switch's sets are the distinct equal-cost sets it derives, in order
// of first use.
func (n *Network) fillRows() {
	g, row := n.Graph(), n.rows()
	sets := make([][][]*netem.Link, len(n.Switches))
	dist := make([]int32, len(n.Hosts)+len(n.Switches))
	var eq []*netem.Link
	for dst := range n.Hosts {
		clear(dist)
		g.Distances(dist, netem.NodeID(dst))
		for i, sw := range n.Switches {
			eq = g.EqualCost(eq[:0], sw.ID(), netem.NodeID(dst), dist)
			j := 0
			for j < len(sets[i]) && !slices.Equal(eq, sets[i][j]) {
				j++
			}
			if j == len(sets[i]) {
				sets[i] = append(sets[i], slices.Clone(eq))
			}
			row(i)[dst] = int32(j)
		}
	}
	for i, sw := range n.Switches {
		sw.SetRow(sets[i], row(i), &n.routes)
	}
}

// validate panics if the network is structurally broken; builders call it
// before returning. It checks that every host has at least one uplink,
// then finishes construction by wiring the shared packet pool.
func (n *Network) validate() {
	for i, h := range n.Hosts {
		if len(h.Uplinks()) == 0 {
			panic(fmt.Sprintf("topology: host %d has no uplink", i))
		}
	}
	n.installPool()
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
// switch's counters, crash state and forwarding row as built; every
// link's queue, fault/degradation state and statistics; every host's
// endpoint table and counters. When the builder derived per-switch ECMP
// hash seeds from the experiment seed, they are re-derived for the new
// seed, so a recycled network is observationally identical to one freshly
// built with it (links keep whatever queue capacity they grew). The
// shared packet pool keeps its free list — that reuse is the point — and
// the steady-state Reset path allocates nothing.
//
// The caller owns the engine half of the contract: Reset drops no
// events, so it must follow (or precede) sim.Engine.Reset, which
// discards the in-flight deliveries referencing this network.
func (n *Network) Reset(seed uint64) {
	for _, sw := range n.Switches {
		sw.Reset()
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
