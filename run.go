package mmptcp

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/routing"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// faultsRNGStream is the dedicated sim.RNG stream id for fault-plan
// randomness (model sampling, loss draws), distinct from the workload's
// root stream 0 so fault configuration never perturbs traffic.
const faultsRNGStream = 0xfa017

// ShortFlowDeadline is the completion deadline against which short flows
// are scored (Results.DeadlineMissRate): 200 ms, a typical
// partition/aggregate budget from the literature the paper cites.
const ShortFlowDeadline = 200 * sim.Millisecond

// Results is everything one experiment run measured.
type Results struct {
	Config Config

	// ShortFlows holds one record per short flow in spawn order — the
	// data behind the paper's Figures 1(b)/1(c) scatter plots.
	ShortFlows []metrics.FlowRecord
	// ShortSummary aggregates them (Figure 1(a)'s mean/stddev and the
	// §3 "116 ms (σ=101) vs 126 ms (σ=425)" comparison).
	ShortSummary metrics.Summary
	// DeadlineMissRate is the fraction of short flows that missed
	// ShortFlowDeadline — the paper's §1 framing of short-flow damage
	// ("even a single RTO may result in flow deadline violation").
	DeadlineMissRate float64

	// Snapshots is the rolling time series recorded when
	// Config.Metrics.SnapshotInterval is positive: one cumulative
	// Snapshot per interval of virtual time (percentile trajectories,
	// drop and routing counters). Nil when snapshots are disabled.
	Snapshots []metrics.Snapshot

	// LongFlows holds one record per background flow, with Delivered
	// bytes for throughput.
	LongFlows []metrics.FlowRecord
	// LongThroughputMbps is the mean per-flow goodput of the long
	// flows over their lifetime (§3: "both protocols achieve the same
	// average throughput for long flows").
	LongThroughputMbps float64

	// Layers reports loss rate, utilisation, and failure accounting
	// (blackholed packets/bytes, time-in-failure) per topology layer
	// (§3: "average loss rate at the core and aggregation layers").
	Layers map[netem.Layer]metrics.LayerStats

	// Blackholed is the network-wide count of packets swallowed by down
	// links (per-layer detail in Layers); zero on a healthy run.
	Blackholed int64
	// NoRouteDrops counts packets discarded at switches because every
	// candidate output link had been excluded by failure reconvergence.
	// Under global routing, upstream rerouting should shrink this
	// relative to the local baseline.
	NoRouteDrops int64
	// HopDrops counts packets discarded by the switches' hop-count
	// routing-loop backstop outside any convergence transient —
	// steady-state hop-limit noise. LoopDrops is the first-class count
	// of backstop drops that fell inside an open staggered-convergence
	// window, where switches disagreeing about the tables is what breeds
	// forwarding micro-loops; identically zero under atomic convergence.
	HopDrops  int64
	LoopDrops int64
	// FaultEvents is the number of scheduled network mutations in the
	// run's resolved fault plan (explicit events plus model samples).
	FaultEvents int
	// SwitchCrashes counts switch crash events applied (a switch crashed
	// twice counts twice), and CrashDrops the packets that reached a
	// crashed switch's forwarding plane.
	SwitchCrashes int64
	CrashDrops    int64

	// Routing reports the repair mode and, in global mode, the control
	// plane's recompute work.
	Routing metrics.RoutingStats

	// PhaseSwitches counts MMPTCP connections that entered phase two.
	// PhaseDeferrals counts the times long-flow connections postponed
	// that switch waiting for routing convergence to quiesce
	// (Config.Transport.DeferPhaseSwitch).
	PhaseSwitches  int
	PhaseDeferrals int

	// Redials counts subflow re-dial attempts across every connection
	// (Config.Transport.DeadRTOs > 0), and RedialRecovered how many of
	// the replacement subflows went on to acknowledge data — i.e. found
	// a live path. Both zero with recovery off.
	Redials         int
	RedialRecovered int

	// Shard reports the parallel engine's synchronization work: barrier
	// and window counts, elided wakeups, mean window width. On a
	// sequential run only Shards (=1) is set. Like Events and the link
	// totals, the counters include the documented post-Stop window
	// overrun.
	Shard metrics.ShardStats

	Elapsed sim.Time // virtual time when the run ended
	Events  uint64   // discrete events processed
	Spawned int      // short flows actually spawned
}

// instance is one reusable engine+network pair — the expensive half of a
// run's setup. Everything else a run needs (transports, workload, faults,
// the routing control plane) is built per run on top of it, so RunSweep
// recycles one instance per worker across runs that share a shape (see
// takeInstance). An instance is single-threaded: one run at a time.
type instance struct {
	shape shapeKey
	eng   *sim.Engine
	net   *topology.Network
	// fab is the sharded fabric bound over net: per-shard engines and the
	// lookahead coordinator for Config.Shards > 1, a direct pass-through
	// to eng otherwise. Its partition wiring survives reset.
	fab *shard.Fabric
	// rec is the structured event recorder armed for the next run (nil
	// when the config's Trace section is off). reset re-arms it with a
	// fresh recorder; with tracing off that is a single nil store, so the
	// recycling reset path stays allocation-free.
	rec *trace.Recorder
}

// newInstance builds the engine and topology for the resolved cfg.
func newInstance(cfg *Config) (*instance, error) {
	eng := sim.NewEngine()
	net := cfg.buildNetwork(eng)
	fab, err := shard.Build(eng, net, cfg.Shards)
	if err != nil {
		return nil, err
	}
	return &instance{shape: cfg.shape(), eng: eng, net: net, fab: fab, rec: trace.NewRecorder(cfg.Trace.Mode)}, nil
}

// reset restores the instance to the state newInstance(cfg) would have
// built: engine clock at zero with no pending events, every switch, link
// and host pristine, per-switch ECMP hash seeds re-derived from cfg.Seed.
// cfg is resolved and has the instance's shape. It allocates nothing.
func (ri *instance) reset(cfg *Config) {
	ri.eng.Reset()
	ri.net.Reset(cfg.Seed)
	ri.fab.Reset()
	ri.rec = trace.NewRecorder(cfg.Trace.Mode)
}

// Run executes one experiment and returns its measurements.
func Run(cfg Config) (*Results, error) {
	if err := cfg.resolve(true); err != nil {
		return nil, err
	}
	res, _, err := runOnce(&cfg)
	return res, err
}

// RunTraced is Run plus the recorder: it executes one experiment with
// cfg's Trace section armed and returns the recorder holding the run's
// events alongside the Results. The recorder is nil when cfg.Trace.Mode
// is off — callers wanting a trace must ask for one. Results are
// byte-identical to an untraced Run of the same config (tracing
// observes, never perturbs); export the events with WriteJSONL or
// WriteChromeTrace.
func RunTraced(cfg Config) (*Results, *trace.Recorder, error) {
	if err := cfg.resolve(true); err != nil {
		return nil, nil, err
	}
	return runOnce(&cfg)
}

// runOnce runs the resolved cfg on a throwaway instance.
func runOnce(cfg *Config) (*Results, *trace.Recorder, error) {
	inst, err := newInstance(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := inst.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, inst.rec, nil
}

// runRecycled is one RunSweep job on a resolved config. parked is the
// calling worker's slot: the instance its previous job left behind, or
// nil. The slot is refilled only after a clean run, so an instance whose
// run failed is dropped rather than parked dirty.
func runRecycled(cfg *Config, parked **instance) (*Results, error) {
	inst, err := takeInstance(cfg, parked)
	if err != nil {
		return nil, err
	}
	res, err := inst.run(cfg)
	if err != nil {
		return nil, err
	}
	*parked = inst
	return res, nil
}

// takeInstance empties the slot and returns an instance ready to run the
// resolved cfg: the parked one, reset, when it has cfg's shape; a fresh
// build otherwise (first job, shape change), with the parked one let go
// first so a worker never holds two. The reuse path allocates nothing.
func takeInstance(cfg *Config, parked **instance) (*instance, error) {
	inst := *parked
	*parked = nil
	if inst == nil || inst.shape != cfg.shape() {
		return newInstance(cfg)
	}
	inst.reset(cfg)
	return inst, nil
}

// flow pairs one flow's record with its live connection; conn is nil
// once the flow is closed.
type flow struct {
	rec  metrics.FlowRecord
	conn Conn
}

// liveRun is one experiment in flight: the resolved config, the instance
// it runs on, and what the build, spawn, execute and collect steps of
// instance.run hand each other.
type liveRun struct {
	cfg *Config
	*instance
	res     *Results
	rootRNG *sim.RNG

	faultPlan    *faults.Injector
	controlPlane *routing.ControlPlane
	// observer is the convergence signal MMPTCP's deferred phase switch
	// consults: the control plane when one is installed (only under
	// active faults — a fault-free deferring run sees a forever-closed
	// window), nil otherwise.
	observer core.ConvergenceObserver

	assign  workload.Assignment
	spawner *workload.PoissonShortFlows
	longs   []*flow
	// shorts is the flow table: every short flow, in spawn order (the
	// paper's scatter-plot ordering).
	shorts    []*flow
	completed int
}

// run is the body shared by every entry point: cfg is resolved for a run
// and the instance is fresh or reset for it.
func (ri *instance) run(cfg *Config) (*Results, error) {
	r, err := ri.build(cfg)
	if err != nil {
		return nil, err
	}
	r.spawn()
	r.execute()
	r.collect()
	return r.res, nil
}

// build arms tracing, installs the network dynamics and draws the
// traffic matrix.
func (ri *instance) build(cfg *Config) (*liveRun, error) {
	r := &liveRun{
		cfg:      cfg,
		instance: ri,
		res:      &Results{Config: *cfg},
		rootRNG:  sim.NewRNG(cfg.Seed),
	}
	eng, net, rec := ri.eng, ri.net, ri.rec

	// Arm the data plane's trace points. The resets cleared them, so on
	// an untraced run (rec nil) every trace point stays a not-taken
	// branch. Only sequential runs trace: Config rejects a traced run on
	// more than one shard.
	if rec != nil {
		for _, l := range net.Links {
			l.SetRecorder(rec)
		}
		for _, sw := range net.Switches {
			sw.SetRecorder(rec)
		}
	}

	// Network dynamics. The fault plan draws from its own RNG stream —
	// not rootRNG — so a faulted run and its healthy twin share an
	// identical workload, and the comparison isolates the failures.
	var err error
	if cfg.Faults.Active() {
		r.faultPlan, err = faults.Install(eng, faults.Target{
			Links:    net.Links,
			Switches: net.Switches,
		}, cfg.Faults, sim.NewRNGStream(cfg.Seed, faultsRNGStream), cfg.MaxSimTime)
		if err != nil {
			return nil, err
		}
		r.faultPlan.SetRecorder(rec)
		if cfg.Routing.Mode == RoutingGlobal {
			// Global repair: rewrite the override entries of the
			// switches' forwarding rows (coalesced) on each
			// reconvergence-delayed link state change. Staggered
			// convergence is the control plane's own knob.
			r.controlPlane, err = routing.Install(eng, net, cfg.Routing)
			if err != nil {
				return nil, err
			}
			r.controlPlane.SetRecorder(rec)
			r.faultPlan.OnRouteChange = r.controlPlane.Invalidate
			r.observer = r.controlPlane
		}
	}

	r.assign = workload.BuildPermutation(r.rootRNG.Split(), len(net.Hosts), max(cfg.LongFraction, 0))
	if cfg.HotspotFraction > 0 {
		r.assign.ApplyHotspot(cfg.HotspotFraction, 0)
	}
	return r, nil
}

// open dials f's connection — the one place a flow is dialed — and
// records the flow's start.
func (r *liveRun) open(f *flow, onAllAcked func()) {
	src, dst := int(f.rec.Src), int(f.rec.Dst)
	f.conn = dial(r.net, r.cfg, DialConfig{
		FlowID:     f.rec.ID,
		Src:        src,
		Dst:        dst,
		Size:       f.rec.Size,
		RNG:        r.rootRNG.Split(),
		onAllAcked: onAllAcked,
		recorder:   r.rec,
		observer:   r.observer,
	})
	r.rec.Record(r.eng.Now(), trace.KindFlowStart, f.rec.ID, -1,
		int32(src), int32(dst), f.rec.Size, 0)
}

// close snapshots f's sender statistics into its record, folds its
// re-dial and phase accounting into the results (all zeros with recovery
// off) and frees the endpoints — the one place a flow is closed: when its
// sender finishes, or at the end of the run for a flow still open.
func (r *liveRun) close(f *flow) {
	st := f.conn.Stats()
	f.rec.Timeouts = st.Timeouts
	f.rec.FastRetransmits = st.FastRetransmits
	f.rec.Retransmissions = st.Retransmissions
	f.rec.SegmentsSent = st.SegmentsSent
	f.rec.Delivered = f.conn.Receiver().Delivered()
	redials, recovered := f.conn.RedialStats()
	r.res.Redials += redials
	r.res.RedialRecovered += recovered
	if mc, ok := MMPTCPConn(f.conn); ok {
		r.res.PhaseDeferrals += mc.Deferrals()
		if f.rec.Class == metrics.LongFlow && mc.Switched() {
			r.res.PhaseSwitches++
		}
	}
	f.conn.Close()
	f.conn = nil
}

// spawn starts the long background flows, schedules the short flows'
// Poisson arrivals and, when asked for, the rolling snapshots.
func (r *liveRun) spawn() {
	cfg, eng := r.cfg, r.eng
	// Long background flows: start at t=0, run for the whole simulation.
	nextFlowID := uint64(1)
	for _, src := range r.assign.LongSenders {
		lf := &flow{rec: metrics.FlowRecord{
			ID:    nextFlowID,
			Src:   netem.NodeID(src),
			Dst:   netem.NodeID(r.assign.Partner[src]),
			Class: metrics.LongFlow,
			Proto: string(cfg.Protocol),
			Size:  -1,
		}}
		r.open(lf, nil)
		r.longs = append(r.longs, lf)
		lf.conn.Start()
		nextFlowID++
	}

	// Short flows: Poisson arrivals, permutation destinations.
	r.spawner = &workload.PoissonShortFlows{
		Eng:    eng,
		Assign: &r.assign,
		Rate:   cfg.ArrivalRate,
		Size:   cfg.ShortFlowSize,
		Total:  cfg.ShortFlows,
		Warmup: cfg.Warmup,
		BaseID: nextFlowID,
		Spawn:  r.spawnShort,
	}
	r.spawner.Start(r.rootRNG.Split())

	// Rolling snapshots: a recurring event samples the cumulative state
	// every interval. The extra events shift Results.Events (documented
	// on MetricsConfig); nothing else observes them.
	if iv := cfg.Metrics.SnapshotInterval; iv > 0 {
		var tick func()
		tick = func() {
			r.res.Snapshots = append(r.res.Snapshots, r.snapshot())
			eng.Schedule(iv, tick)
		}
		eng.Schedule(iv, tick)
	}
}

// spawnShort is the spawner's callback: it opens one short flow and
// wires its two completions. Those fire on the owning endpoint's engine
// (the receiver's on the destination shard, the sender's on the source
// shard); the fabric defers them to the coordinator, which replays them
// in (time, shard) order — immediately in sequential mode.
func (r *liveRun) spawnShort(id uint64, src, dst int, size int64) {
	fab := r.fab
	sf := &flow{rec: metrics.FlowRecord{
		ID:    id,
		Src:   netem.NodeID(src),
		Dst:   netem.NodeID(dst),
		Class: metrics.ShortFlow,
		Proto: string(r.cfg.Protocol),
		Size:  size,
		Start: r.eng.Now(),
	}}
	r.shorts = append(r.shorts, sf)
	r.open(sf, func() {
		fab.Defer(fab.HostShard(src), func(sim.Time) {
			// Sender finished too: snapshot stats and free endpoints.
			r.close(sf)
		})
	})
	rcv := sf.conn.Receiver()
	rcv.OnComplete = func() {
		fab.Defer(fab.HostShard(dst), func(at sim.Time) {
			sf.rec.Completed = true
			sf.rec.End = at
			r.rec.Record(at, trace.KindFlowEnd, id, -1,
				int32(src), int32(dst), rcv.Delivered(), 0)
			r.completed++
			if n := r.cfg.ShortFlows; r.completed == n && r.spawner.Spawned() == n {
				fab.Stop()
			}
		})
	}
	sf.conn.Start()
}

// execute runs the fabric to completion or MaxSimTime; nothing
// interrupts a run. The fabric runs the control engine directly in
// sequential mode; with Shards > 1 it interleaves conservative-lookahead
// windows with control barriers. A Stop issued by the final completion
// takes effect at the barrier replaying it, with the completion's own
// firing time as the run's end time (see shard.Fabric.Run for the
// bounded window overrun this implies).
func (r *liveRun) execute() {
	fab, res := r.fab, r.res
	_, res.Elapsed = fab.Run(r.cfg.MaxSimTime)
	fab.FoldStats()
	res.Events = fab.Events()
	res.Spawned = r.spawner.Spawned()
	res.Shard = fab.Stats()
}

// collect closes what is still open and turns the flow table, the
// network's counters and the control plane's statistics into Results.
func (r *liveRun) collect() {
	cfg, net, res := r.cfg, r.net, r.res
	for _, sf := range r.shorts {
		if sf.conn != nil { // never finished, or the sender still awaited ACKs
			r.close(sf)
		}
		res.ShortFlows = append(res.ShortFlows, sf.rec)
	}
	res.ShortSummary = metrics.Summarize(res.ShortFlows)
	res.DeadlineMissRate = metrics.DeadlineMissRate(res.ShortFlows, ShortFlowDeadline)

	// Long flows: goodput over their lifetime.
	var tputSum float64
	for _, lf := range r.longs {
		r.close(lf)
		lf.rec.End = res.Elapsed
		tputSum += lf.rec.ThroughputMbps(res.Elapsed)
		res.LongFlows = append(res.LongFlows, lf.rec)
	}
	if len(r.longs) > 0 {
		res.LongThroughputMbps = tputSum / float64(len(r.longs))
	}

	res.Layers = metrics.LayerReport(net.Links, res.Elapsed)
	for _, ls := range res.Layers {
		res.Blackholed += ls.Blackholed
	}
	// The control plane's counters first: the assignment replaces the
	// whole block, which the lines after it complete.
	if r.controlPlane != nil {
		res.Routing = r.controlPlane.Stats()
	}
	res.Routing.Mode = string(cfg.Routing.Mode)
	res.Routing.Convergence = string(cfg.Routing.Convergence)
	for _, sw := range net.Switches {
		res.NoRouteDrops += sw.NoRoute
		res.HopDrops += sw.Dropped
		res.LoopDrops += sw.LoopDrops
		res.SwitchCrashes += sw.Crashes
		res.CrashDrops += sw.CrashDrops
		res.Routing.TransientNoRoute += sw.TransientNoRoute
		res.Routing.StaleLookups += sw.StaleLookups
	}
	if r.faultPlan != nil {
		res.FaultEvents = len(r.faultPlan.Events)
	}
}

// snapshot samples the run's cumulative state: workload progress, the
// summary of the short flows closed so far (their records are final),
// network-wide damage counters, and the control plane's work so far.
func (r *liveRun) snapshot() metrics.Snapshot {
	var closed []metrics.FlowRecord
	for _, sf := range r.shorts {
		if sf.conn == nil {
			closed = append(closed, sf.rec)
		}
	}
	snap := metrics.Snapshot{
		At:      r.eng.Now(),
		Spawned: r.spawner.Spawned(),
		Short:   metrics.Summarize(closed),
	}
	for _, l := range r.net.Links {
		snap.Blackholed += l.TotalBlackholed()
	}
	for _, sw := range r.net.Switches {
		snap.NoRouteDrops += sw.NoRoute
		snap.HopDrops += sw.Dropped
		snap.LoopDrops += sw.LoopDrops
		snap.CrashDrops += sw.CrashDrops
	}
	if cp := r.controlPlane; cp != nil {
		st := cp.Stats()
		snap.Recomputes = st.Recomputes
		snap.Overrides = st.Overrides
	}
	return snap
}
