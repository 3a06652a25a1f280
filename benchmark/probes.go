package main

import (
	"fmt"
	"runtime"
	"time"

	mmptcp "repro"
	"repro/internal/netem"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Micro-probes time the layers' exported functions directly, shaped by the
// workload's fabric (K and hosts per edge) and event-heap depth. They are
// raw host times, not drift-corrected: each lasts a fraction of a second,
// per-layer metrics carry no bound, and they are read as ratios against an
// earlier run of the same probe, not as absolutes.

// fabricOf returns the FatTree shape a workload simulates.
func (w *workload) fabricOf(seed uint64, scale float64) topology.FatTreeConfig {
	cfg := w.firstConfig(seed, scale)
	return topology.FatTreeConfig{K: cfg.K, HostsPerEdge: cfg.HostsPerEdge, Link: topology.DefaultLinkConfig(), Seed: seed}
}

type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// probeEngine times the event queue at a fixed pending depth: the classic
// hold model (fire the earliest event, schedule a new one) through
// Schedule+Step, and a retransmit-style Timer.Reset, which cancels and
// re-pushes, on the same heap.
func probeEngine(depth, ops int) (pushpopNs, rearmNs float64) {
	eng := sim.NewEngine()
	rng := xorshift(0x2545f4914f6cdd1d)
	nop := func() {}
	for i := 0; i < depth; i++ {
		eng.Schedule(sim.Time(1+rng.next()%1_000_000), nop)
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		eng.Step()
		eng.Schedule(sim.Time(1+rng.next()%1_000_000), nop)
	}
	pushpopNs = float64(time.Since(t0).Nanoseconds()) / float64(ops)

	timer := sim.NewTimer(eng, nop)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		timer.Reset(sim.Time(1 + rng.next()%1_000_000))
	}
	rearmNs = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	timer.Stop()
	return pushpopNs, rearmNs
}

// sinkNode terminates a probe link: it recycles what it receives.
type sinkNode struct {
	id   netem.NodeID
	pool *netem.PacketPool
	got  int
}

func (s *sinkNode) ID() netem.NodeID { return s.id }
func (s *sinkNode) Receive(p *netem.Packet, _ *netem.Link) {
	s.got++
	s.pool.Put(p)
}

// probeLinkHop times one 1,500-byte packet from Link.Enqueue to delivery
// on an idle 100 Mb/s link: two engine events and the queue bookkeeping.
func probeLinkHop(ops int) (float64, error) {
	eng := sim.NewEngine()
	pool := netem.NewPacketPool()
	src := &sinkNode{id: 0, pool: pool}
	dst := &sinkNode{id: 1, pool: pool}
	link := netem.NewLink(eng, src, dst, 100_000_000, 20*sim.Microsecond, 30, netem.LayerEdge)
	link.SetPool(pool)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		p := pool.Get()
		p.Size = 1500
		link.Enqueue(p)
		eng.Run()
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(ops)
	if dst.got != ops {
		return 0, fmt.Errorf("link hop probe delivered %d of %d packets", dst.got, ops)
	}
	return ns, nil
}

type countEndpoint struct{ got int }

func (c *countEndpoint) HandlePacket(*netem.Packet) { c.got++ }

// probeJourney times Host.Send of one packet across the workload's fabric
// to a host in the last pod — six links, five switch lookups — with the
// source port varied so that ECMP spreads the packets over every path.
func probeJourney(ft topology.FatTreeConfig, ops int) (ns, allocsPer float64, err error) {
	eng := sim.NewEngine()
	net := topology.NewFatTree(eng, ft)
	src, dst := net.Hosts[0], net.Hosts[len(net.Hosts)-1]
	ep := &countEndpoint{}
	dst.Register(1, 0, ep)
	send := func(i int) {
		p := src.NewPacket()
		p.Src, p.Dst = src.ID(), dst.ID()
		p.SrcPort, p.DstPort = uint16(10000+i%50000), 80
		p.Size = 1500
		p.FlowID, p.Subflow = 1, 0
		p.Flags = netem.FlagData
		src.Send(p)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // fill the packet pool
		send(i)
	}
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		send(i)
	}
	ns = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	allocsPer = float64(mallocs()-m0) / float64(ops)
	if ep.got != ops+64 {
		return 0, 0, fmt.Errorf("journey probe delivered %d of %d packets", ep.got, ops+64)
	}
	return ns, allocsPer, nil
}

// probeBuild times topology.NewFatTree for the workload's fabric.
func probeBuild(ft topology.FatTreeConfig, reps int) (ms, allocsPer float64) {
	var times []float64
	var allocs uint64
	for i := 0; i < reps; i++ {
		m0 := mallocs()
		t0 := time.Now()
		net := topology.NewFatTree(sim.NewEngine(), ft)
		times = append(times, time.Since(t0).Seconds()*1e3)
		allocs = mallocs() - m0
		runtime.KeepAlive(net)
	}
	return median(times), float64(allocs)
}

type routingProbe struct {
	healthyLookupNs    float64
	overriddenLookupNs float64
	recomputeMs        float64
	recomputeAllocs    float64
}

// probeRouting builds the workload's fabric, times the structural router's
// NextLinks, installs the control plane, then repeatedly fails and repairs
// one cable at the given layer — SetRouteDead on both directions,
// Invalidate, Recompute — timing each Recompute, and finally times
// NextLinks on a switch whose FIB now holds override entries.
func probeRouting(ft topology.FatTreeConfig, layer mmptcp.Layer, lookups, recomputes int) (routingProbe, error) {
	var out routingProbe
	eng := sim.NewEngine()
	net := topology.NewFatTree(eng, ft)
	hosts := len(net.Hosts)

	lookup := func(sw *netem.Switch) float64 {
		r := sw.Router()
		n := 0
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			n += len(r.NextLinks(netem.NodeID(i % hosts)))
		}
		d := time.Since(t0)
		runtime.KeepAlive(n)
		return float64(d.Nanoseconds()) / float64(lookups)
	}

	cable := net.LinksAtLayer(layer)
	if len(cable) < 2 {
		return out, fmt.Errorf("routing probe: no cable at layer %v", layer)
	}
	// Links come in direction pairs; the switch end of the cable is where
	// overrides will appear.
	fwd, rev := cable[0], cable[1]
	var sw *netem.Switch
	for _, s := range net.Switches {
		if s.ID() == fwd.Src().ID() || s.ID() == fwd.Dst().ID() {
			sw = s
			break
		}
	}
	if sw == nil {
		return out, fmt.Errorf("routing probe: cable %v touches no switch", fwd)
	}
	out.healthyLookupNs = lookup(sw)

	cp, err := routing.Install(eng, &net.Network, routing.Config{})
	if err != nil {
		return out, fmt.Errorf("routing probe: %w", err)
	}
	var times []float64
	var allocs uint64
	for i := 0; i < recomputes; i++ {
		dead := i%2 == 0
		fwd.SetRouteDead(dead)
		rev.SetRouteDead(dead)
		cp.Invalidate(fwd)
		cp.Invalidate(rev)
		m0 := mallocs()
		t0 := time.Now()
		cp.Recompute()
		times = append(times, time.Since(t0).Seconds()*1e3)
		allocs += mallocs() - m0
	}
	out.recomputeMs = median(times)
	out.recomputeAllocs = float64(allocs) / float64(recomputes)
	if recomputes%2 == 0 { // leave the cable dead so overrides are live
		fwd.SetRouteDead(true)
		rev.SetRouteDead(true)
		cp.Invalidate(fwd)
		cp.Invalidate(rev)
		cp.Recompute()
	}
	out.overriddenLookupNs = lookup(sw)
	return out, nil
}

// probeSegment runs one large flow over a one-host-per-side dumbbell
// through mmptcp.Run and returns host nanoseconds per segment sent. The
// three transports share everything but their own layer, so the
// differences between them are the multipath layers' own cost.
func probeSegment(proto mmptcp.Protocol, bytes int64) (float64, error) {
	cfg := mmptcp.Config{
		Topology:      mmptcp.TopoDumbbell,
		K:             2,
		HostsPerEdge:  1,
		Protocol:      proto,
		ShortFlows:    1,
		ShortFlowSize: bytes,
		ArrivalRate:   1000,
		LongFraction:  -1,
		Seed:          1,
	}
	t0 := time.Now()
	res, err := mmptcp.Run(cfg)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("segment probe %s: %w", proto, err)
	}
	if len(res.ShortFlows) != 1 || !res.ShortFlows[0].Completed || res.ShortFlows[0].SegmentsSent == 0 {
		return 0, fmt.Errorf("segment probe %s: the flow did not complete", proto)
	}
	return float64(d.Nanoseconds()) / float64(res.ShortFlows[0].SegmentsSent), nil
}

// probeBarrier estimates one barrier round-trip: a sparse 64-host run with
// no long flows, where shards have almost nothing to do between barriers,
// sequentially and on two shards; the extra host time divided by the
// barrier count. Best of three each, since the extra is small.
func probeBarrier(scale float64) (float64, error) {
	run := func(shards int) (float64, uint64, error) {
		best := 0.0
		var barriers uint64
		for i := 0; i < 3; i++ {
			cfg := mmptcp.Config{
				Topology:     mmptcp.TopoFatTree,
				K:            4,
				HostsPerEdge: 8,
				Protocol:     mmptcp.ProtoMMPTCP,
				ShortFlows:   scaleCount(200, scale, 8),
				ArrivalRate:  4,
				LongFraction: -1,
				Seed:         1,
				Shards:       shards,
			}
			t0 := time.Now()
			res, err := mmptcp.Run(cfg)
			d := time.Since(t0).Seconds()
			if err != nil {
				return 0, 0, fmt.Errorf("barrier probe: %w", err)
			}
			if best == 0 || d < best {
				best = d
			}
			barriers = res.Shard.Barriers
		}
		return best, barriers, nil
	}
	seq, _, err := run(0)
	if err != nil {
		return 0, err
	}
	par, barriers, err := run(2)
	if err != nil {
		return 0, err
	}
	if barriers == 0 {
		return 0, fmt.Errorf("barrier probe: the 2-shard run reported no barriers")
	}
	return (par - seq) * 1e9 / float64(barriers), nil
}
