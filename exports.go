package mmptcp

import (
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Aliases re-export the handful of internal types that appear in the
// public API, so downstream users can drive custom scenarios (single
// flows via Dial, hand-built workloads) without importing internal
// packages.
type (
	// Engine is the discrete-event simulation engine.
	Engine = sim.Engine
	// RNG is the deterministic random number generator.
	RNG = sim.RNG
	// SimTime is a point in virtual time (nanoseconds).
	SimTime = sim.Time
	// Network is a built topology (hosts, switches, links).
	Network = topology.Network
	// Sampler records time series (cwnd, RTT, queue depth) from a
	// running simulation.
	Sampler = trace.Sampler
	// Recorder is the structured event recorder (flight recorder)
	// enabled by Config.Trace; see RunTraced.
	Recorder = trace.Recorder

	// FaultsConfig is the network-dynamics section of Config: timed
	// failure/degradation events, an optional sampled failure model, and
	// the routing reconvergence delay.
	FaultsConfig = faults.Config
	// FaultEvent is one timed network mutation (link down/up,
	// degradation, restore) addressed by layer and link index.
	FaultEvent = faults.Event
	// FaultModel samples cable failures from per-layer MTBF/MTTR
	// statistics.
	FaultModel = faults.Model
	// FaultLayerModel is one layer's MTBF/MTTR failure statistics.
	FaultLayerModel = faults.LayerModel
	// Layer classifies where in the topology a link sits.
	Layer = netem.Layer

	// RoutingMode selects local vs global repair under failures; see
	// Config.Routing.
	RoutingMode = routing.Mode
	// ConvergenceMode selects atomic vs staggered (per-switch FIB flip)
	// table distribution in the global control plane; see RoutingConfig.
	ConvergenceMode = routing.Convergence
	// RoutingStats reports the control plane's work (recompute count,
	// last convergence time, live override entries, staggered flip
	// spread and transient-window damage) in Results.Routing.
	RoutingStats = metrics.RoutingStats
)

// Fault event kinds.
const (
	FaultLinkDown = faults.LinkDown
	FaultLinkUp   = faults.LinkUp
)

// Routing repair modes for Config.Routing.Mode.
const (
	RoutingLocal  = routing.Local
	RoutingGlobal = routing.Global
)

// Convergence models for Config.Routing.Convergence.
const (
	ConvergeAtomic    = routing.Atomic
	ConvergeStaggered = routing.Staggered
)

// Topology layers, for addressing fault targets.
const (
	LayerHost = netem.LayerHost
	LayerEdge = netem.LayerEdge
	LayerAgg  = netem.LayerAgg
	LayerCore = netem.LayerCore
)

// FailCables builds LinkDown events for both directions of the first n
// cables at a topology layer at time `at`, with matching LinkUp repair
// events at upAt (0 = never repaired). See faults.FailCables.
func FailCables(layer Layer, n int, at, upAt SimTime) []FaultEvent {
	return faults.FailCables(layer, n, at, upAt)
}

// DegradeCables builds Degrade events (capacity factor, random loss) for
// both directions of the first n cables at a layer, with Restore events
// at restoreAt (0 = never restored).
func DegradeCables(layer Layer, n int, at, restoreAt SimTime, capacityFactor, lossRate float64) []FaultEvent {
	return faults.DegradeCables(layer, n, at, restoreAt, capacityFactor, lossRate)
}

// FailSwitches builds SwitchDown crash events for the given switch
// ordinals (builder order) at time `at`, with matching SwitchUp restart
// events at upAt (0 = never restarted). A crash fails every port of the
// switch at once. See faults.FailSwitches.
func FailSwitches(switches []int, at, upAt SimTime) []FaultEvent {
	return faults.FailSwitches(switches, at, upAt)
}

// Virtual-time units for use with SimTime.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// NewRNGStream returns a deterministic generator on an explicit stream.
// Streams with the same seed are statistically independent — this is the
// derivation RunSweep uses to give each run of a replicate set its own
// seed (see SweepOptions.Seed).
func NewRNGStream(seed, stream uint64) *RNG { return sim.NewRNGStream(seed, stream) }

// NewSampler creates a time-series sampler on the engine.
func NewSampler(eng *Engine, interval SimTime) *Sampler {
	return trace.NewSampler(eng, interval)
}

// NewNetwork builds the topology described by cfg on the engine.
func NewNetwork(eng *Engine, cfg Config) (*Network, error) {
	if err := cfg.resolve(false); err != nil {
		return nil, err
	}
	return cfg.buildNetwork(eng), nil
}

// PathCount returns the number of equal-cost paths between two hosts of
// a built network (the oracle MMPTCP's packet-scatter phase uses for its
// duplicate-ACK threshold).
func PathCount(net *Network, src, dst int) int {
	return net.PathCount(netem.NodeID(src), netem.NodeID(dst))
}
