package mmptcp

import (
	"context"
	"fmt"

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

// Results is everything one experiment run measured.
type Results struct {
	Config Config

	// ShortFlows holds one record per short flow in spawn order — the
	// data behind the paper's Figures 1(b)/1(c) scatter plots. It is nil
	// when Config.Metrics.Mode is MetricsStreaming: streaming runs keep
	// no per-flow state, only the aggregates below.
	ShortFlows []metrics.FlowRecord
	// ShortSummary aggregates them (Figure 1(a)'s mean/stddev and the
	// §3 "116 ms (σ=101) vs 126 ms (σ=425)" comparison). In streaming
	// mode the counts, mean, stddev, min and max are still exact; the
	// percentiles carry a relative error of at most
	// 2^-Config.Metrics.HistPrecision.
	ShortSummary metrics.Summary
	// DeadlineMissRate is the fraction of short flows that missed
	// Config.Deadline — the paper's §1 framing of short-flow damage
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

// RunInstance is one reusable engine+network pair — the expensive half
// of a run's setup. Everything else a run needs (transports, workload,
// faults, the routing control plane) is built per run on top of it, so
// an instance can be recycled across runs that share a Config Shape:
// build once with NewRunInstance, then alternate Reset and Run. RunSweep
// does exactly that with one instance per worker; the direct API exists
// for benchmarks and custom drivers.
//
// An instance is single-threaded: one run at a time, no concurrent use.
type RunInstance struct {
	shape Shape
	eng   *sim.Engine
	net   *topology.Network
	// fab is the sharded fabric bound over net: per-shard engines and the
	// lookahead coordinator for Config.Shards > 1, a direct pass-through
	// to eng otherwise. Its partition wiring survives Reset.
	fab *shard.Fabric
	// rec is the structured event recorder armed for the next run (nil
	// when the config's Trace section is off). It is re-armed — reused
	// when the trace options match, rebuilt otherwise — by Reset, so a
	// recycled flight recorder costs its storage once per instance.
	rec *trace.Recorder
}

// NewRunInstance builds the engine and topology for cfg. The returned
// instance is ready to Run cfg (or any config sharing its Shape and
// Seed); reuse under a different config requires Reset first.
func NewRunInstance(cfg Config) (*RunInstance, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	net, err := cfg.buildNetwork(eng)
	if err != nil {
		return nil, err
	}
	fab, err := shard.Build(eng, net, cfg.Shards)
	if err != nil {
		return nil, err
	}
	ri := &RunInstance{shape: cfg.shape(), eng: eng, net: net, fab: fab}
	ri.armRecorder(&cfg)
	return ri, nil
}

// Shape returns the structural key the instance serves.
func (ri *RunInstance) Shape() Shape { return ri.shape }

// Recorder returns the structured event recorder armed for the
// instance's current run, or nil when tracing is off. After a run it
// holds the run's events; after Reset it is empty (or replaced, if the
// new config's trace options differ). Flight-recorder drivers read it
// between Run and the next Reset.
func (ri *RunInstance) Recorder() *trace.Recorder { return ri.rec }

// armRecorder points ri.rec at a recorder matching cfg's trace section:
// nil when tracing is off, the existing recorder reset in place when
// its options already match, a fresh one otherwise. cfg must have
// defaults applied. With tracing off this is a single nil store — the
// recycling Reset path stays allocation-free.
func (ri *RunInstance) armRecorder(cfg *Config) {
	if cfg.Trace.Mode == TraceOff {
		ri.rec = nil
		return
	}
	opts := cfg.recorderOptions()
	if ri.rec.Matches(opts) {
		ri.rec.Reset()
		return
	}
	ri.rec = trace.NewRecorder(opts)
}

// Reset restores the instance to the state a fresh NewRunInstance(cfg)
// would have: engine clock at zero with no pending events, every switch,
// link and host pristine, per-switch ECMP hash seeds re-derived from
// cfg.Seed. A config whose Shape differs from the instance's is rejected
// — a mismatched reuse would silently run on the wrong network. The
// steady-state Reset path allocates nothing.
func (ri *RunInstance) Reset(cfg Config) error {
	if err := cfg.applyDefaults(); err != nil {
		return err
	}
	if s := cfg.shape(); s != ri.shape {
		return fmt.Errorf("mmptcp: instance of shape %+v cannot run config of shape %+v", ri.shape, s)
	}
	ri.eng.Reset()
	ri.net.Reset(cfg.Seed)
	ri.fab.Reset()
	ri.armRecorder(&cfg)
	return nil
}

// Run executes one experiment on the instance. The instance must be
// freshly built for cfg or Reset with it; Results are byte-identical to
// Run(cfg) on a throwaway instance (the recycling guarantee, locked in
// by TestPooledSweepByteIdentical).
func (ri *RunInstance) Run(ctx context.Context, cfg Config) (*Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if err := cfg.validateWorkload(); err != nil {
		return nil, err
	}
	return runWith(ctx, cfg, ri)
}

// Run executes one experiment and returns its measurements.
func Run(cfg Config) (*Results, error) {
	return RunContext(context.Background(), cfg)
}

// ctxPollEvents is how many simulation events RunContext processes
// between context polls — frequent enough to abort a stuck run in
// milliseconds of wall time, rare enough to be free on the hot path.
const ctxPollEvents = 8192

// RunContext is Run with cancellation: the simulation polls ctx every few
// thousand events and aborts with ctx's error once it is cancelled. This
// is what lets RunSweep tear down a whole fleet of in-flight experiments
// the moment one of them fails.
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	inst, err := NewRunInstance(cfg)
	if err != nil {
		return nil, err
	}
	return inst.Run(ctx, cfg)
}

// RunTraced is Run plus the recorder: it executes one experiment with
// cfg's Trace section armed and returns the recorder holding the run's
// events alongside the Results. The recorder is nil when cfg.Trace.Mode
// is off — callers wanting a trace must ask for one. Results are
// byte-identical to an untraced Run of the same config (tracing
// observes, never perturbs); export the events with WriteJSONL or
// WriteChromeTrace.
func RunTraced(cfg Config) (*Results, *trace.Recorder, error) {
	inst, err := NewRunInstance(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := inst.Run(context.Background(), cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, inst.rec, nil
}

// runRecycled is one RunSweep job. parked is the calling worker's slot:
// the instance its previous job left behind, or nil. The slot is
// refilled only after a clean run, so an instance whose run failed or
// was cancelled is dropped rather than parked dirty.
func runRecycled(ctx context.Context, cfg Config, parked **RunInstance) (*Results, error) {
	inst, err := takeInstance(cfg, parked)
	if err != nil {
		return nil, err
	}
	res, err := inst.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	*parked = inst
	return res, nil
}

// takeInstance empties the slot and returns an instance ready to run
// cfg: the parked one, reset, when it has cfg's shape; a fresh build
// otherwise (first job, shape change), with the parked one let go first
// so a worker never holds two. The reuse path allocates nothing.
func takeInstance(cfg Config, parked **RunInstance) (*RunInstance, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	inst := *parked
	*parked = nil
	if inst == nil || inst.shape != cfg.shape() {
		return NewRunInstance(cfg)
	}
	if err := inst.Reset(cfg); err != nil {
		return nil, err
	}
	return inst, nil
}

// runWith is the body shared by every entry point. cfg has defaults
// applied and its workload validated; inst is fresh or Reset for cfg.
func runWith(ctx context.Context, cfg Config, inst *RunInstance) (*Results, error) {
	eng, net, fab := inst.eng, inst.net, inst.fab
	if ctx.Done() != nil {
		eng.SetInterrupt(ctxPollEvents, func() bool { return ctx.Err() != nil })
	}
	rootRNG := sim.NewRNG(cfg.Seed)

	// Arm the data plane's trace points. rec is nil on untraced runs —
	// the stores below then just re-assert the nil the resets left
	// behind, and every trace point stays a not-taken branch. On a
	// partitioned fabric each shard records into its own recorder
	// (merged back into rec after the run); flows record into their
	// source shard's.
	rec := inst.rec
	var recOpts trace.Options
	if rec != nil {
		recOpts = cfg.recorderOptions()
	}
	fab.InstallTracing(rec, recOpts)

	// Network dynamics. The fault plan draws from its own RNG stream —
	// not rootRNG — so a faulted run and its healthy twin share an
	// identical workload, and the comparison isolates the failures.
	var faultPlan *faults.Injector
	var controlPlane *routing.ControlPlane
	var err error
	if cfg.Faults.Active() {
		faultPlan, err = faults.Install(eng, faults.Target{
			Links:        net.Links,
			Switches:     net.Switches,
			SwitchLayers: net.SwitchLayers,
		}, cfg.Faults, sim.NewRNGStream(cfg.Seed, faultsRNGStream), cfg.MaxSimTime)
		if err != nil {
			return nil, err
		}
		faultPlan.SetRecorder(rec)
		if cfg.Routing.Mode == RoutingGlobal {
			// Global repair: wrap every router with a per-switch FIB and
			// rebuild the override tables (coalesced) on each
			// reconvergence-delayed link state change. Staggered
			// convergence and flap damping are the control plane's own
			// knobs.
			controlPlane, err = routing.Install(eng, net, cfg.routingConfig())
			if err != nil {
				return nil, err
			}
			controlPlane.SetRecorder(rec)
			faultPlan.OnRouteChange = controlPlane.Invalidate
		}
	}
	// The convergence signal MMPTCP's deferred phase switch consults.
	// Assigned only when a control plane exists (validation already
	// requires Routing.Mode global for DeferPhaseSwitch, but the control
	// plane is only installed when faults are active — a fault-free
	// deferring run simply observes a forever-closed window).
	var observer core.ConvergenceObserver
	if controlPlane != nil {
		observer = controlPlane
	}

	// Streaming accumulation: the streaming metrics mode's only
	// aggregate, and the snapshot time series' percentile source in
	// either mode (exact mode's final summary still comes from the full
	// record slice, so enabling snapshots never perturbs it).
	streaming := cfg.Metrics.Mode == MetricsStreaming
	var stream *metrics.StreamingSummary
	if streaming || cfg.Metrics.SnapshotInterval > 0 {
		stream, err = metrics.NewStreamingSummary(cfg.Metrics.HistPrecision, cfg.Deadline)
		if err != nil {
			return nil, err
		}
	}

	longFrac := cfg.LongFraction
	if longFrac < 0 {
		longFrac = 0
	}
	assign := workload.BuildPermutation(rootRNG.Split(), len(net.Hosts), longFrac)
	if cfg.HotspotFraction > 0 {
		assign.ApplyHotspot(workload.HotspotConfig{
			Fraction: cfg.HotspotFraction,
			Host:     cfg.HotspotHost,
		})
	}

	res := &Results{Config: cfg, Layers: make(map[netem.Layer]metrics.LayerStats)}

	// foldRedials accumulates a connection's re-dial and phase-deferral
	// accounting just before the connection is closed (afterwards the
	// subflow senders are torn down). With recovery off every call
	// returns zeros.
	foldRedials := func(c Conn) {
		r, rc := c.RedialStats()
		res.Redials += r
		res.RedialRecovered += rc
		if mc, ok := MMPTCPConn(c); ok {
			res.PhaseDeferrals += mc.Deferrals()
		}
	}

	// Long background flows: start at t=0, run for the whole
	// simulation.
	type longFlow struct {
		rec  metrics.FlowRecord
		conn Conn
	}
	var longs []*longFlow
	nextFlowID := uint64(1)
	for _, src := range assign.LongSenders {
		lf := &longFlow{rec: metrics.FlowRecord{
			ID:    nextFlowID,
			Src:   netem.NodeID(src),
			Dst:   netem.NodeID(assign.Partner[src]),
			Class: metrics.LongFlow,
			Proto: string(cfg.Protocol),
			Size:  -1,
			Start: 0,
		}}
		flowRec := fab.FlowRecorder(rec, src)
		conn, err := Dial(eng, net, cfg, DialConfig{
			FlowID:   nextFlowID,
			Src:      src,
			Dst:      assign.Partner[src],
			Size:     -1,
			RNG:      rootRNG.Split(),
			Recorder: flowRec,
			Observer: observer,
		})
		if err != nil {
			return nil, err
		}
		if flowRec != nil {
			flowRec.Record(eng.Now(), trace.KindFlowStart, nextFlowID, -1,
				int32(src), int32(assign.Partner[src]), -1, 0)
		}
		lf.conn = conn
		longs = append(longs, lf)
		conn.Start()
		nextFlowID++
	}

	// Short flows: Poisson arrivals, permutation destinations. Exact
	// mode keeps every record (spawnOrder preserves the paper's
	// scatter-plot ordering); streaming mode observes each flow into the
	// aggregates the moment it finishes and forgets it.
	shorts := make(map[uint64]*shortFlow, cfg.ShortFlows)
	var spawnOrder []uint64
	completed := 0
	shortBase := nextFlowID

	spawner := &workload.PoissonShortFlows{
		Eng:    eng,
		Assign: &assign,
		Rate:   cfg.ArrivalRate,
		Size:   cfg.ShortFlowSize,
		Total:  cfg.ShortFlows,
		Warmup: cfg.Warmup,
		BaseID: shortBase,
	}
	spawner.Spawn = func(id uint64, src, dst int, size int64) {
		sf := &shortFlow{rec: metrics.FlowRecord{
			ID:    id,
			Src:   netem.NodeID(src),
			Dst:   netem.NodeID(dst),
			Class: metrics.ShortFlow,
			Proto: string(cfg.Protocol),
			Size:  size,
			Start: eng.Now(),
		}}
		flowRec := fab.FlowRecorder(rec, src)
		conn, err := Dial(eng, net, cfg, DialConfig{
			FlowID: id, Src: src, Dst: dst, Size: size, RNG: rootRNG.Split(),
			Recorder: flowRec,
			Observer: observer,
		})
		if err != nil {
			panic(err) // config was validated; this cannot happen
		}
		if flowRec != nil {
			flowRec.Record(eng.Now(), trace.KindFlowStart, id, -1,
				int32(src), int32(dst), size, 0)
		}
		sf.conn = conn
		shorts[id] = sf
		if !streaming {
			spawnOrder = append(spawnOrder, id)
		}
		// Completion callbacks fire on the owning endpoint's engine (the
		// receiver's on the destination shard, the sender's on the source
		// shard); the fabric defers them to the coordinator, which replays
		// them in (time, shard) order — immediately in sequential mode.
		conn.Receiver().OnComplete = func() {
			fab.Defer(fab.HostShard(dst), func(at sim.Time) {
				sf.rec.Completed = true
				sf.rec.End = at
				if flowRec != nil {
					flowRec.Record(at, trace.KindFlowEnd, id, -1,
						int32(src), int32(dst), conn.Receiver().Delivered(), 0)
				}
				completed++
				if completed == cfg.ShortFlows && spawner.Spawned() == cfg.ShortFlows {
					fab.Stop()
				}
			})
		}
		conn.SetOnAllAcked(func() {
			fab.Defer(fab.HostShard(src), func(sim.Time) {
				// Sender finished too: snapshot stats and free endpoints.
				sf.fill()
				foldRedials(sf.conn)
				sf.conn.Close()
				sf.conn = nil
				if stream != nil {
					stream.Observe(sf.rec)
				}
				if streaming {
					delete(shorts, id)
				}
			})
		})
		conn.Start()
	}
	spawner.Start(rootRNG.Split())

	// Rolling snapshots: a recurring event samples the cumulative state
	// every interval. The extra events shift Results.Events (documented
	// on MetricsConfig); nothing else observes them.
	if iv := cfg.Metrics.SnapshotInterval; iv > 0 {
		var tick func()
		tick = func() {
			res.Snapshots = append(res.Snapshots, takeSnapshot(eng, net, spawner, stream, controlPlane))
			eng.Schedule(iv, tick)
		}
		eng.Schedule(iv, tick)
	}

	// Execute. The fabric runs the control engine directly in sequential
	// mode; with Shards > 1 it interleaves conservative-lookahead windows
	// with control barriers. A Stop issued by the final completion takes
	// effect at the barrier replaying it, with the completion's own
	// firing time as the run's end time (see shard.Fabric.Run for the
	// bounded window overrun this implies).
	var interrupt func() bool
	if ctx.Done() != nil {
		interrupt = func() bool { return ctx.Err() != nil }
	}
	_, elapsed := fab.Run(shard.RunOptions{
		Until:     cfg.MaxSimTime,
		Interrupt: interrupt,
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fab.MergeTraces(rec)
	fab.FoldStats()
	res.Elapsed = elapsed
	res.Events = fab.Events()
	res.Spawned = spawner.Spawned()
	res.Shard = metrics.ShardStats{Shards: fab.Shards()}
	if fab.Shards() > 1 {
		st := fab.Stats()
		res.Shard.Mode = "conservative"
		res.Shard.LookaheadNs = int64(fab.Lookahead())
		res.Shard.Barriers = st.Barriers
		res.Shard.ControlTurns = st.ControlTurns
		res.Shard.Windows = st.Windows
		res.Shard.ElidedWakeups = st.ElidedWakeups
		res.Shard.MeanWindowNs = st.MeanWindowNs()
	}

	if streaming {
		// Whatever is left in the map never finished (or its sender was
		// still awaiting ACKs): account it, then summarise.
		for _, sf := range shorts {
			if sf.conn != nil {
				sf.fill()
				foldRedials(sf.conn)
				sf.conn.Close()
				sf.conn = nil
			}
			stream.Observe(sf.rec)
		}
		res.ShortSummary = stream.Summary()
		res.DeadlineMissRate = stream.MissRate()
	} else {
		// Collect short-flow records in spawn order.
		for _, id := range spawnOrder {
			sf := shorts[id]
			if sf.conn != nil { // still open at sim end
				sf.fill()
				foldRedials(sf.conn)
				sf.conn.Close()
				sf.conn = nil
			}
			res.ShortFlows = append(res.ShortFlows, sf.rec)
		}
		res.ShortSummary = metrics.Summarize(res.ShortFlows)
		res.DeadlineMissRate = metrics.DeadlineMissRate(res.ShortFlows, cfg.Deadline)
	}

	// Long flows: goodput over their lifetime.
	var tputSum float64
	for _, lf := range longs {
		lf.rec.Delivered = lf.conn.Receiver().Delivered()
		st := lf.conn.Stats()
		lf.rec.Timeouts = st.Timeouts
		lf.rec.FastRetransmits = st.FastRetransmits
		lf.rec.Retransmissions = st.Retransmissions
		lf.rec.SegmentsSent = st.SegmentsSent
		lf.rec.End = res.Elapsed
		if mc, ok := MMPTCPConn(lf.conn); ok && mc.Switched() {
			res.PhaseSwitches++
		}
		foldRedials(lf.conn)
		lf.conn.Close()
		tputSum += lf.rec.ThroughputMbps(res.Elapsed)
		res.LongFlows = append(res.LongFlows, lf.rec)
	}
	if len(longs) > 0 {
		res.LongThroughputMbps = tputSum / float64(len(longs))
	}

	res.Layers = metrics.LayerReport(net.Links, res.Elapsed)
	for _, ls := range res.Layers {
		res.Blackholed += ls.Blackholed
	}
	for _, sw := range net.Switches {
		res.NoRouteDrops += sw.NoRoute
		res.HopDrops += sw.Dropped
		res.LoopDrops += sw.LoopDrops
		res.SwitchCrashes += sw.Crashes
		res.CrashDrops += sw.CrashDrops
		res.Routing.TransientNoRoute += sw.TransientNoRoute
		res.Routing.StaleLookups += sw.StaleLookups
	}
	if faultPlan != nil {
		res.FaultEvents = len(faultPlan.Events)
	}
	res.Routing.Mode = string(cfg.Routing.Mode)
	res.Routing.Convergence = string(cfg.Routing.Convergence)
	if controlPlane != nil {
		st := controlPlane.Stats()
		res.Routing.Recomputes = st.Recomputes
		res.Routing.LastConvergence = st.LastConvergence
		res.Routing.Overrides = st.Overrides
		res.Routing.DstRecomputed = st.DstRecomputed
		res.Routing.DstSkipped = st.DstSkipped
		res.Routing.BFSRuns = st.BFSRuns
		res.Routing.Flips = st.Flips
		res.Routing.FirstFlip = st.FirstFlip
		res.Routing.LastFlip = st.LastFlip
		res.Routing.TransientTime = st.TransientTime
		res.Routing.Damped = st.Damped
	}
	return res, nil
}

// takeSnapshot samples the run's cumulative state: workload progress,
// the streaming short-flow summary, network-wide damage counters, and
// the control plane's work so far.
func takeSnapshot(eng *sim.Engine, net *topology.Network, spawner *workload.PoissonShortFlows, stream *metrics.StreamingSummary, cp *routing.ControlPlane) metrics.Snapshot {
	snap := metrics.Snapshot{
		At:      eng.Now(),
		Spawned: spawner.Spawned(),
		Short:   stream.Summary(),
	}
	for _, l := range net.Links {
		snap.Blackholed += l.TotalBlackholed()
	}
	for _, sw := range net.Switches {
		snap.NoRouteDrops += sw.NoRoute
		snap.HopDrops += sw.Dropped
		snap.LoopDrops += sw.LoopDrops
		snap.CrashDrops += sw.CrashDrops
	}
	if cp != nil {
		st := cp.Stats()
		snap.Recomputes = st.Recomputes
		snap.Overrides = st.Overrides
	}
	return snap
}

// shortFlow pairs one short flow's record with its live connection.
type shortFlow struct {
	rec  metrics.FlowRecord
	conn Conn
}

// fill snapshots sender statistics into the record (called once, when
// the sender finishes or the simulation ends).
func (sf *shortFlow) fill() {
	if sf.conn == nil {
		return
	}
	st := sf.conn.Stats()
	sf.rec.Timeouts = st.Timeouts
	sf.rec.FastRetransmits = st.FastRetransmits
	sf.rec.Retransmissions = st.Retransmissions
	sf.rec.SegmentsSent = st.SegmentsSent
	sf.rec.Delivered = sf.conn.Receiver().Delivered()
}
