// Package shard implements the parallel simulation core: it partitions a
// built topology into shards — each owning its own event heap, packet
// pool and slice of hosts, switches and links — and executes them
// concurrently under conservative lookahead. The minimum propagation
// delay across shard-boundary links is a hard lower bound on how far one
// shard's present can influence another's future, so every shard can
// safely run a bounded window ahead of the last synchronisation point
// without ever receiving an event in its past.
//
// The synchronisation protocol is bounded-lag with barriers: the
// coordinator computes a window edge W = min(S + L, C) from the earliest
// pending shard event S, the lookahead L and the earliest control-plane
// event C, dispatches every shard to execute events strictly below W,
// then flushes cross-shard deliveries and deferred completion callbacks
// at the barrier. A barrier is the degenerate form of a null-message
// broadcast — every shard learns every neighbour's horizon at once —
// which trades a little parallel slack for a deadlock-free protocol with
// no per-channel timestamp traffic. The coordinator runs shard 0; each
// other shard's worker spins on an atomic hand-off, so a run keeps Shards
// cores busy throughout. A shard with nothing to execute below the edge
// is elided from the window: no hand-off, no wait; see coordinator.go.
//
// Determinism contract: runs are deterministic for a fixed (Seed,
// Shards). Cross-shard deliveries are totally ordered by (timestamp,
// source shard, send order) on the destination heap, with the order key
// assigned when the source emits the delivery, not when a barrier
// commits it: same-nanosecond event order therefore never depends on
// where a barrier happened to fall. With 1 shard (or 0, the default) the
// fabric runs in direct mode on the caller's engine and is byte-identical
// to the sequential simulator by construction. With N≥2 shards the event
// interleaving differs from the sequential order in bounded, documented
// ways — identical-nanosecond ties resolve control-first at barriers,
// same-instant cross-shard arrivals order after local events and by
// source shard, and a Stop lands on a window edge so shard engines
// overrun it by at most one window — so N-shard Results are
// deterministic but not byte-identical to the oracle; the sharded tests
// assert determinism plus the config-driven invariants (spawn and fault
// counts) against it.
//
// The fabric has no trace hooks: tracing runs on the sequential engine,
// and the public Config rejects a traced run on more than one shard. The
// fabric reports in metrics.ShardStats, the type Results.Shard carries.
package shard

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// delivery is one cross-shard event buffered in an outbox: a link
// delivery callback with its absolute arrival time and its intrinsic
// ordering key (assigned at send time, not commit time).
type delivery struct {
	at  sim.Time
	key uint64
	fn  func(any)
	arg any
}

// Delivery ordering keys. Committed deliveries must sort, among events
// at the same nanosecond on the destination engine, (a) after every
// locally scheduled event and (b) among themselves by (source shard,
// send order). Both properties are intrinsic to the simulation — they
// never depend on which barrier happened to commit the delivery. The
// lane bit puts delivery keys above any insertion sequence the engine
// can reach; the source shard occupies the next bits; the low bits are
// the per-outbox send counter.
const (
	deliveryLane   = uint64(1) << 63
	deliverySrcSh  = 40
	deliveryKeyMax = uint64(1) << deliverySrcSh
)

// outbox is the cross-shard half of a boundary link's receive side. It
// has the two methods netem.Link calls on its receive scheduler, so a
// link schedules deliveries through it without knowing about shards:
// AtArg buffers the event (the transmit shard's thread appends, nobody
// else touches pending until the barrier), and the coordinator commits
// the buffered deliveries to the destination engine in deterministic
// order at each barrier. Now() is only called from the destination
// shard's thread, while a delivery executes there.
type outbox struct {
	dst     *sim.Engine
	src     int    // source shard, baked into delivery keys
	sent    uint64 // sends so far this run: the key's low bits
	pending []delivery
}

func (o *outbox) Now() sim.Time { return o.dst.Now() }

func (o *outbox) AtArg(t sim.Time, fn func(any), arg any) {
	if o.sent >= deliveryKeyMax {
		panic("shard: outbox send counter exhausted its key bits")
	}
	key := deliveryLane | uint64(o.src)<<deliverySrcSh | o.sent
	o.sent++
	o.pending = append(o.pending, delivery{at: t, key: key, fn: fn, arg: arg})
}

// deferredCall is a completion callback captured on a shard thread and
// replayed at the next barrier with the virtual time it fired at.
type deferredCall struct {
	at sim.Time
	fn func(at sim.Time)
}

// Fabric is a partitioned network bound to per-shard engines, plus the
// coordinator state to run them. Build it once per run instance (the
// wiring survives Network.Reset) and drive each run with Run.
type Fabric struct {
	control *sim.Engine
	net     *topology.Network

	// direct marks the 0/1-shard fabric: no partitioning, no worker
	// threads — every node stays bound to the control engine and Run is
	// a plain RunUntil. This is what makes the 1-shard fabric
	// byte-identical to the sequential simulator by construction rather
	// than by argument.
	direct bool

	engines   []*sim.Engine
	pools     []*netem.PacketPool
	hostShard []int
	lookahead sim.Time

	outboxes []*outbox // in (src shard, dst shard) order: the merge order
	deferred [][]deferredCall

	stopped  bool
	stopTime sim.Time

	// stats is the Results "Shard" block, counted by the coordinator.
	// Every counter derives from heap states at barriers, never from
	// thread timing, so it is deterministic for a fixed (Seed, Shards).
	// windowNsSum accumulates window widths for its MeanWindowNs.
	stats       metrics.ShardStats
	windowNsSum sim.Time

	workers  []worker // shards 1..N-1; live only inside Run
	workerWG sync.WaitGroup
	deferIdx []int // flushDeferred scratch, kept to avoid per-barrier allocation
}

// Stats returns the Results "Shard" block for the last (or current)
// run: the shard count, lookahead mode and bound, and the coordinator's
// counts. A direct fabric, which has no coordinator, reports {Shards: 1}.
func (f *Fabric) Stats() metrics.ShardStats {
	st := f.stats
	if st.Windows > 0 {
		st.MeanWindowNs = float64(f.windowNsSum) / float64(st.Windows)
	}
	return st
}

// Build partitions net across `shards` engines and rebinds every host,
// switch and link to its owner. shards <= 1 builds a direct fabric that
// leaves the network untouched on the control engine. The partition
// comes from topology.Partition (per-pod on FatTrees, contiguous
// otherwise); hosts follow their access switch, so a host-switch cable
// is never a boundary.
func Build(control *sim.Engine, net *topology.Network, shards int) (*Fabric, error) {
	if shards <= 1 {
		return &Fabric{control: control, net: net, direct: true, stats: metrics.ShardStats{Shards: 1}}, nil
	}
	assign, err := topology.Partition(net, shards)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		control:  control,
		net:      net,
		deferred: make([][]deferredCall, shards),
		deferIdx: make([]int, shards),
	}
	f.engines = make([]*sim.Engine, shards)
	f.pools = make([]*netem.PacketPool, shards)
	for i := range f.engines {
		f.engines[i] = sim.NewEngine()
		f.pools[i] = netem.NewPacketPool()
	}

	nodeShard := make(map[netem.NodeID]int, len(net.Switches)+len(net.Hosts))
	for i, sw := range net.Switches {
		nodeShard[sw.ID()] = assign[i]
		sw.Rebind(f.engines[assign[i]], f.pools[assign[i]])
	}
	f.hostShard = make([]int, len(net.Hosts))
	for i, h := range net.Hosts {
		s := nodeShard[h.Uplinks()[0].Dst().ID()]
		f.hostShard[i] = s
		nodeShard[h.ID()] = s
		h.Rebind(f.engines[s], f.pools[s])
	}

	obIndex := make([]*outbox, shards*shards)
	f.lookahead = sim.MaxTime
	for _, l := range net.Links {
		tx := nodeShard[l.Src().ID()]
		rx := nodeShard[l.Dst().ID()]
		if tx == rx {
			l.Rebind(f.engines[tx], f.engines[tx], f.pools[tx], f.pools[tx])
			continue
		}
		ob := obIndex[tx*shards+rx]
		if ob == nil {
			ob = &outbox{dst: f.engines[rx], src: tx}
			obIndex[tx*shards+rx] = ob
		}
		l.Rebind(f.engines[tx], ob, f.pools[tx], f.pools[rx])
		if l.PropDelay() < f.lookahead {
			f.lookahead = l.PropDelay()
		}
	}
	if f.lookahead == sim.MaxTime {
		// Disconnected shards would also be fine (infinite lookahead),
		// but no supported topology produces them; treat as a partition
		// bug rather than silently running unsynchronised.
		return nil, fmt.Errorf("shard: partition of %s into %d shards has no boundary links", net.Kind, shards)
	}
	if f.lookahead <= 0 {
		return nil, fmt.Errorf("shard: zero-delay boundary link leaves no conservative lookahead (partition of %s into %d shards)", net.Kind, shards)
	}
	f.stats = metrics.ShardStats{Shards: shards, Mode: "conservative", LookaheadNs: int64(f.lookahead)}
	// Fixed (src, dst) flush order: this is the "shard" component of the
	// deterministic (time, shard, seq) merge order.
	for tx := 0; tx < shards; tx++ {
		for rx := 0; rx < shards; rx++ {
			if ob := obIndex[tx*shards+rx]; ob != nil {
				f.outboxes = append(f.outboxes, ob)
			}
		}
	}
	return f, nil
}

// HostShard returns the shard owning host i.
func (f *Fabric) HostShard(i int) int {
	if f.direct {
		return 0
	}
	return f.hostShard[i]
}

// Events returns the total number of events processed across the control
// engine and every shard engine.
func (f *Fabric) Events() uint64 {
	total := f.control.Processed()
	for _, e := range f.engines {
		total += e.Processed()
	}
	return total
}

// Stop requests the run to stop, with the semantics of sim.Engine.Stop:
// the event (or deferred callback) that called it completes, nothing
// after it runs. Call only from the control thread — in practice from
// the completion callbacks the harness routes through Defer.
func (f *Fabric) Stop() {
	f.stopped = true
	if f.direct {
		f.control.Stop()
	}
}

// Defer hands a completion callback to the coordinator. On a shard
// thread (window execution) the callback and its firing time are
// buffered and replayed on the control thread at the next barrier, in
// (time, shard, buffer order); in direct mode it runs immediately.
// shard must be the shard whose engine the callback fires on (the
// receiver's for OnComplete, the sender's for OnAllAcked) — that
// engine's clock is the callback's firing time.
func (f *Fabric) Defer(shard int, fn func(at sim.Time)) {
	if f.direct {
		fn(f.control.Now())
		return
	}
	f.deferred[shard] = append(f.deferred[shard], deferredCall{at: f.engines[shard].Now(), fn: fn})
}

// FoldStats merges receive-side link counters into each link's Stats so
// reports see the whole picture; call after Run has returned.
func (f *Fabric) FoldStats() {
	for _, l := range f.net.Links {
		l.FoldRx()
	}
}

// Reset clears per-run coordinator state for instance reuse: shard
// engine heaps and clocks, buffered deliveries and completions, the stop
// latch. The partition wiring (engine/pool bindings, outbox routing)
// persists — that is the expensive half Build paid for. The control
// engine is the caller's to reset, alongside Network.Reset.
func (f *Fabric) Reset() {
	f.stopped = false
	f.stopTime = 0
	f.stats = metrics.ShardStats{Shards: f.stats.Shards, Mode: f.stats.Mode, LookaheadNs: f.stats.LookaheadNs}
	f.windowNsSum = 0
	for _, e := range f.engines {
		e.Reset()
	}
	for _, ob := range f.outboxes {
		ob.pending = ob.pending[:0]
		ob.sent = 0
	}
	for i := range f.deferred {
		f.deferred[i] = f.deferred[i][:0]
	}
}

// flushOutboxes commits buffered cross-shard deliveries to their
// destination heaps. Each delivery carries its intrinsic ordering key
// (source shard, send order — assigned when the sending shard emitted
// it), so the destination heap realises the documented total order —
// same-nanosecond deliveries after same-nanosecond local events, then
// by (source shard, send order) — regardless of which barrier the
// commit lands on. The buffers are nearly sorted already (transmit
// completions execute in time order; only links of differing delay
// sharing an outbox interleave), so a stable insertion sort beats the
// generic sort without allocating; it exists only to keep heap pushes
// cheap, the keys alone fix the order.
func (f *Fabric) flushOutboxes() {
	for _, ob := range f.outboxes {
		p := ob.pending
		for i := 1; i < len(p); i++ {
			for j := i; j > 0 && p[j].at < p[j-1].at; j-- {
				p[j], p[j-1] = p[j-1], p[j]
			}
		}
		for _, d := range p {
			ob.dst.AtArgKeyed(d.at, d.fn, d.arg, d.key)
		}
		for i := range p {
			p[i] = delivery{}
		}
		ob.pending = p[:0]
	}
}

// flushDeferred replays buffered completion callbacks on the control
// thread in (time, shard, buffer) order. A callback that calls Stop
// discards the rest, mirroring the sequential engine where Stop prevents
// any later event from running.
func (f *Fabric) flushDeferred() {
	idx := f.deferIdx
	for s := range idx {
		idx[s] = 0
	}
	for {
		best, bestShard := sim.MaxTime, -1
		for s := range f.deferred {
			if idx[s] < len(f.deferred[s]) && f.deferred[s][idx[s]].at < best {
				best, bestShard = f.deferred[s][idx[s]].at, s
			}
		}
		if bestShard < 0 {
			break
		}
		d := f.deferred[bestShard][idx[bestShard]]
		idx[bestShard]++
		d.fn(d.at)
		if f.stopped {
			f.stopTime = d.at
			break
		}
	}
	for s := range f.deferred {
		buf := f.deferred[s]
		for i := range buf {
			buf[i] = deferredCall{}
		}
		f.deferred[s] = buf[:0]
	}
}
