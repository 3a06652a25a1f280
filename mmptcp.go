// Package mmptcp is a packet-level simulation study of MMPTCP — "Short
// vs. Long Flows: A Battle That Both Can Win" (Kheirkhah, Wakeman,
// Parisis; SIGCOMM 2015) — implemented entirely in Go on a custom
// discrete-event simulator.
//
// MMPTCP is a hybrid data-centre transport: it opens in a Packet Scatter
// phase (per-packet source-port randomisation under a single TCP window,
// spraying packets across all ECMP paths — good for latency-sensitive
// short flows), then switches to standard MPTCP with LIA coupled
// congestion control (good for bandwidth-hungry long flows).
//
// This package is the public API: describe an experiment with Config —
// topology (the paper's 512-server 4:1 over-subscribed FatTree or
// smaller variants), protocol (TCP, MPTCP with N subflows, MMPTCP with
// either switching strategy) and workload (permutation traffic matrix,
// one third of servers running long background flows, the rest sending
// 70 KB short flows with Poisson arrivals) — and Run it to obtain
// per-flow completion times, per-layer loss rates, long-flow throughput
// and link utilisation.
//
// The internal packages implement the substrates: internal/sim (event
// engine), internal/netem (links, queues, ECMP switches), internal/
// topology (FatTree and friends), internal/tcp (NewReno), internal/mptcp
// (LIA), internal/core (MMPTCP itself), internal/workload and
// internal/metrics.
package mmptcp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Protocol selects the transport under test.
type Protocol string

// Supported protocols.
const (
	ProtoTCP    Protocol = "tcp"    // single-path NewReno over per-flow ECMP
	ProtoMPTCP  Protocol = "mptcp"  // MPTCP with Subflows subflows and LIA
	ProtoMMPTCP Protocol = "mmptcp" // the paper's hybrid (PS then MPTCP)
	// ProtoDCTCP is the single-path DCTCP baseline (the §1 class of
	// latency-oriented transports that need switch ECN support).
	// Selecting it enables ECN marking on every link at a queue of 10
	// packets.
	ProtoDCTCP Protocol = "dctcp"
)

// TopologyKind selects the simulated network.
type TopologyKind string

// Supported topologies.
const (
	TopoFatTree    TopologyKind = "fattree"    // k-ary FatTree (paper: K=8, 16 hosts/edge)
	TopoMultiHomed TopologyKind = "multihomed" // dual-homed FatTree (paper roadmap)
	TopoDumbbell   TopologyKind = "dumbbell"   // two switches, one bottleneck
)

// TransportConfig is the transport-recovery section of Config: whether
// and how the transports react to persistent path failures instead of
// backing off on RTOs until repair. The zero value is off — recovery
// disabled — and off really is off: no extra RNG draws, no extra engine
// events, results byte-identical to builds without the subsystem (the
// recovery-off byte-identity suite pins this).
//
// With DeadRTOs > 0, an MPTCP/MMPTCP subflow that fires that many
// consecutive RTOs without an intervening new ACK is declared dead: its
// sender is closed, its unacknowledged data-level allocation migrates
// back to the connection for re-pull, and a replacement subflow is
// dialed on a fresh randomised source port — re-hashing the 5-tuple
// onto a hopefully-live ECMP path — re-entering LIA coupling. Repeat
// deaths of the same subflow slot back off capped-exponentially from
// 10 ms, and each connection spends at most RedialBudget re-dial
// attempts. Plain TCP and DCTCP have one path and never
// re-dial; the knobs are accepted under any protocol so one experiment
// config can compare transports.
//
// Determinism: replacement source ports are drawn from the
// connection's own per-flow RNG stream, consumed in event order, so
// recovery-on runs are deterministic per (Seed, Shards) and recovery
// stays out of every other flow's draw sequence.
type TransportConfig struct {
	// DeadRTOs is the consecutive-RTO threshold declaring a subflow's
	// path dead. Zero disables recovery; negative is rejected.
	DeadRTOs int
	// RedialBudget caps re-dial attempts per connection; defaults to 4
	// when DeadRTOs is set. A connection out of budget leaves its
	// stalled subflows backing off as if recovery were off. Setting it
	// with recovery off is rejected.
	RedialBudget int
	// DeferPhaseSwitch holds MMPTCP's packet-scatter→subflow switch
	// open while the routing control plane reports an unconverged state
	// (pending recompute or staged FIB flips), so fresh subflows are not
	// pinned onto mid-flip tables. The switch is forced core.MaxDefer
	// (50 ms) after the first postponement, even under sustained churn.
	// Requires Routing.Mode global — local repair exposes no convergence
	// signal.
	DeferPhaseSwitch bool
}

// MetricsConfig is the measurement section of Config: whether the run
// records a rolling time series. The zero value records none.
type MetricsConfig struct {
	// SnapshotInterval, when positive, records a cumulative Snapshot of
	// the run every interval of virtual time into Results.Snapshots:
	// short-flow percentile trajectories plus drop and routing counters.
	// Zero disables (the default); negative is rejected. Enabling
	// snapshots schedules extra engine events, so Results.Events shifts
	// relative to a snapshot-free run; everything else is unchanged.
	SnapshotInterval sim.Time
}

// TraceConfig is the observability section of Config: whether a run
// records a structured event trace and how events are stored. The modes
// and their storage sizes are internal/trace's (TraceMode is trace.Mode).
// The zero value is off — and off really is free: every trace point
// reduces to a nil-receiver check, pinned by the allocation-free
// forwarding tests and the engine-throughput benchmark.
//
// Tracing observes and never perturbs: a traced run's Results are
// byte-identical to the same config untraced (trace storage lives
// outside the packet pools and consumes no RNG).
type TraceConfig struct {
	// Mode selects off (default), ring, or full storage; the string
	// "off" is accepted as a spelled-out zero value.
	Mode TraceMode
}

// Config describes one experiment. The zero value is not runnable; use
// PaperConfig or SmallConfig as starting points, or fill the required
// fields (Protocol, ShortFlows, ArrivalRate).
//
// Resolve-once contract: every exported entry point (Run, RunTraced,
// each RunSweep job, Dial, NewNetwork) takes a Config by value, fills the
// zero fields' defaults and checks every rule on its own copy exactly
// once, and returns an error naming the field for a config it cannot
// serve — never a panic. Results.Config is that
// resolved copy. The caller's value is not written to.
//
// The structural fields — Topology, K, HostsPerEdge and Shards, plus
// whether Protocol turns on ECN marking — are the ones a built
// engine+network depends on (see shapeKey); everything else — protocol, workload, faults, routing,
// metrics, seed — is per-run state a recycled sweep instance resets.
type Config struct {
	// Topology.
	Topology     TopologyKind // default TopoFatTree
	K            int          // FatTree arity; default 8
	HostsPerEdge int          // hosts per edge switch; default 2*K (4:1 over-subscription)

	// Protocol.
	Protocol    Protocol
	Subflows    int           // MPTCP/MMPTCP subflows; default 8, at most 127 (IDs are int8)
	Strategy    core.Strategy // MMPTCP switching strategy
	SwitchBytes int64         // MMPTCP data-volume threshold; default 100 KB
	// PSThreshold selects the packet-scatter duplicate-ACK threshold
	// policy: topology-derived (default) or RR-TCP-like adaptive. Every
	// sender runs NewReno with the constants in internal/tcp: 1400-byte
	// segments, a 200 ms minimum RTO.
	PSThreshold core.ThresholdMode

	// Workload: the paper's Figure 1 setup.
	LongFraction  float64  // fraction of hosts running long flows; default 1/3; negative = none
	ShortFlowSize int64    // default 70 KB
	ShortFlows    int      // number of short flows to spawn (required)
	ArrivalRate   float64  // short flows per second per short sender (required)
	Warmup        sim.Time // long-flow head start; default 100 ms

	// Hotspot (roadmap experiment): fraction of short senders
	// redirected to host 0. Zero disables.
	HotspotFraction float64

	// Faults schedules network dynamics — link failures, repairs,
	// switch crashes, capacity/delay degradation and random loss —
	// applied while the run executes, plus the routing reconvergence
	// delay that opens a blackhole window after each state change. The
	// zero value leaves the network permanently healthy. Fault
	// randomness (model sampling, loss draws) comes from an RNG stream
	// derived from Seed that is disjoint from the workload's, so adding
	// faults never perturbs the traffic pattern, and RunSweep carries
	// the section unchanged. See FaultsConfig and FailCables.
	Faults FaultsConfig

	// Routing selects the repair and convergence model under failures;
	// see RoutingConfig, which internal/routing defines and resolves.
	// Irrelevant on a healthy network: the control plane is only
	// installed when Faults is active, so the healthy hot path is
	// identical in every mode.
	Routing RoutingConfig

	// Transport arms transport-layer failure recovery — subflow
	// re-dialing after persistent RTOs and convergence-aware phase
	// switching; see TransportConfig. The zero value disables both and
	// leaves every run byte-identical to builds without the subsystem.
	Transport TransportConfig

	// Metrics arms optional rolling snapshots; see MetricsConfig. The
	// zero value records none.
	Metrics MetricsConfig

	// Trace enables the structured event recorder — a typed flight
	// recorder over transports, queues, routing and faults; see
	// TraceConfig. The zero value is off and costs nothing.
	Trace TraceConfig

	// Control.
	Seed       uint64
	MaxSimTime sim.Time // safety cap; default 300 s of virtual time

	// Shards partitions the fabric across that many event engines run in
	// parallel under conservative lookahead (per-pod on FatTrees,
	// contiguous switch groups otherwise). 0 and 1 run the sequential
	// engine unchanged. Runs are deterministic for a fixed (Seed, Shards):
	// cross-shard deliveries commit in (time, source shard, send order) —
	// see internal/shard and the README's "Parallel engine" section.
	// Negative values are rejected, as is a shard count exceeding the
	// topology's switch count. Layer-wide loss degradation (a Degrade
	// fault with Index -1 and LossRate > 0) shares one RNG across the
	// whole layer and is rejected with Shards > 1; per-cable degradation
	// (DegradeCables) composes fine.
	Shards int
}

// PaperConfig returns the full-scale setup from the paper's Figure 1:
// 512 servers, 4:1 over-subscription, one third long senders, 70 KB
// short flows. flows sets how many short flows to run (the paper plots
// 100,000; that takes hours).
func PaperConfig(proto Protocol, flows int) Config {
	return Config{
		Topology:     TopoFatTree,
		K:            8,
		HostsPerEdge: 16,
		Protocol:     proto,
		ShortFlows:   flows,
		ArrivalRate:  2.5,
	}
}

// SmallConfig returns a laptop-scale variant preserving the paper's
// shape: a 4:1 over-subscribed K=4 FatTree with 64 hosts.
func SmallConfig(proto Protocol, flows int) Config {
	return Config{
		Topology:     TopoFatTree,
		K:            4,
		HostsPerEdge: 8,
		Protocol:     proto,
		ShortFlows:   flows,
		ArrivalRate:  2.5,
	}
}

// resolve is the one place a Config is defaulted and judged: zero fields
// take their defaults, every value and cross-field rule is checked, the
// topology section is put to its builder's own Validate and the routing
// section to routing.Config.Resolve, so a resolved config builds and
// dials without a panic. Every exported entry point calls it exactly
// once, on its own copy; nothing below re-resolves. Resolving a resolved
// config changes nothing. run says the config is about to be executed,
// which makes the workload fields (ShortFlows, ArrivalRate) required;
// Dial and NewNetwork leave them optional.
//
// One rule needs the built network and is checked when a run starts
// instead: fault events must address existing links and switches.
func (c *Config) resolve(run bool) error {
	// Written so that a NaN fails each of them.
	if !(c.LongFraction < 1) || math.IsInf(c.LongFraction, -1) {
		return fmt.Errorf("mmptcp: LongFraction %v must be a number below 1", c.LongFraction)
	}
	if !(c.ArrivalRate >= 0) || math.IsInf(c.ArrivalRate, 1) {
		return fmt.Errorf("mmptcp: ArrivalRate %v must be a number, not negative", c.ArrivalRate)
	}
	if !(c.HotspotFraction >= 0 && c.HotspotFraction <= 1) {
		return fmt.Errorf("mmptcp: HotspotFraction %v outside [0, 1]", c.HotspotFraction)
	}
	// Nothing below may be negative (times are in nanoseconds).
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"K", int64(c.K)},
		{"HostsPerEdge", int64(c.HostsPerEdge)},
		{"Subflows", int64(c.Subflows)},
		{"SwitchBytes", c.SwitchBytes},
		{"ShortFlowSize", c.ShortFlowSize},
		{"ShortFlows", int64(c.ShortFlows)},
		{"Warmup", int64(c.Warmup)},
		{"MaxSimTime", int64(c.MaxSimTime)},
		{"Shards", int64(c.Shards)},
		{"Faults.ReconvergeDelay", int64(c.Faults.ReconvergeDelay)},
		{"Transport.DeadRTOs", int64(c.Transport.DeadRTOs)},
		{"Transport.RedialBudget", int64(c.Transport.RedialBudget)},
		{"Metrics.SnapshotInterval", int64(c.Metrics.SnapshotInterval)},
	} {
		if f.v < 0 {
			return fmt.Errorf("mmptcp: negative %s: %d", f.name, f.v)
		}
	}
	// K and HostsPerEdge each multiply the fabric: past the forwarding
	// table's bound no topology fits either, and capping them here keeps
	// the products the topology configs are built from in range. Below
	// it, each topology's Validate checks its own table and link counts.
	if c.K > topology.MaxTableEntries || c.HostsPerEdge > topology.MaxTableEntries {
		return fmt.Errorf("mmptcp: K %d or HostsPerEdge %d above %d: the fabric's forwarding table would exceed its bound",
			c.K, c.HostsPerEdge, topology.MaxTableEntries)
	}
	if c.Subflows > math.MaxInt8 {
		return fmt.Errorf("mmptcp: Subflows %d above %d: subflow IDs are int8", c.Subflows, math.MaxInt8)
	}
	if run && (c.ShortFlows == 0 || c.ArrivalRate == 0) {
		return fmt.Errorf("mmptcp: a run needs positive ShortFlows and ArrivalRate, got %d and %v", c.ShortFlows, c.ArrivalRate)
	}
	if c.Strategy < core.SwitchDataVolume || c.Strategy > core.SwitchCongestionEvent {
		return fmt.Errorf("mmptcp: unknown Strategy %v", c.Strategy)
	}
	if c.PSThreshold < core.ThresholdTopology || c.PSThreshold > core.ThresholdStandard {
		return fmt.Errorf("mmptcp: unknown PSThreshold %v", c.PSThreshold)
	}

	orDefault(&c.Topology, TopoFatTree)
	orDefault(&c.K, 8)
	// 2*K hosts per edge switch is the paper's 4:1 edge over-subscription
	// at any FatTree arity (16 hosts/edge at K=8).
	orDefault(&c.HostsPerEdge, 2*c.K)
	orDefault(&c.Subflows, 8)
	orDefault(&c.SwitchBytes, 100_000)
	orDefault(&c.LongFraction, 1.0/3)
	orDefault(&c.ShortFlowSize, 70_000)
	orDefault(&c.Warmup, 100*sim.Millisecond)
	orDefault(&c.MaxSimTime, 300*sim.Second)
	switch c.Protocol {
	case ProtoTCP, ProtoMPTCP, ProtoMMPTCP, ProtoDCTCP:
	default:
		return fmt.Errorf("mmptcp: unknown protocol %q", c.Protocol)
	}
	var err error
	switch c.Topology {
	case TopoFatTree:
		err = c.fatTree().Validate()
	case TopoMultiHomed:
		err = c.multiHomed().Validate()
	case TopoDumbbell:
		err = c.dumbbell().Validate()
	default:
		return fmt.Errorf("mmptcp: unknown topology %q", c.Topology)
	}
	if err != nil {
		return fmt.Errorf("mmptcp: %s with K %d, HostsPerEdge %d: %w", c.Topology, c.K, c.HostsPerEdge, err)
	}

	if err := c.Routing.Resolve(); err != nil {
		return fmt.Errorf("mmptcp: %w", err)
	}
	if c.Transport.DeferPhaseSwitch && c.Routing.Mode != RoutingGlobal {
		return fmt.Errorf("mmptcp: Transport.DeferPhaseSwitch requires Routing.Mode %q (local repair exposes no convergence signal)", RoutingGlobal)
	}
	// Transport recovery: a budget set while re-dialing is off would
	// silently do nothing; an armed mechanism's zero budget takes its
	// default.
	if c.Transport.DeadRTOs > 0 {
		orDefault(&c.Transport.RedialBudget, 4)
	} else if c.Transport.RedialBudget != 0 {
		return fmt.Errorf("mmptcp: Transport.RedialBudget set but Transport.DeadRTOs is 0 (re-dialing off)")
	}
	if c.Shards > 1 {
		for i, ev := range c.Faults.Events {
			if ev.Kind == faults.Degrade && ev.Index == -1 && ev.LossRate > 0 {
				return fmt.Errorf("mmptcp: Faults.Events[%d]: layer-wide loss degradation (Index -1, LossRate %v) shares one RNG across the layer and cannot run with Shards %d; target individual cables (DegradeCables) instead",
					i, ev.LossRate, c.Shards)
			}
		}
	}
	switch c.Trace.Mode {
	case "off": // spelled-out zero value
		c.Trace.Mode = TraceOff
	case TraceOff, TraceRing, TraceFull:
	default:
		return fmt.Errorf("mmptcp: unknown trace mode %q (want %q, %q or %q)",
			c.Trace.Mode, "off", TraceRing, TraceFull)
	}
	return nil
}

// orDefault gives a zero field its default.
func orDefault[T comparable](field *T, def T) {
	var zero T
	if *field == zero {
		*field = def
	}
}

// shapeKey is the comparable structural key sweep-instance recycling
// uses: Config's structural fields. Two Configs with equal keys can
// recycle one instance.
type shapeKey struct {
	Topology     TopologyKind
	K            int
	HostsPerEdge int
	ECNThreshold int
	// Shards is structural: the partition wiring (per-shard engines,
	// pools, outbox routing) is built with the instance, so a recycled
	// instance only serves configs sharing its shard count.
	Shards int
}

// shape is the resolved config's structural key.
func (c *Config) shape() shapeKey {
	return shapeKey{
		Topology:     c.Topology,
		K:            c.K,
		HostsPerEdge: c.HostsPerEdge,
		ECNThreshold: c.ecnThreshold(),
		Shards:       c.Shards,
	}
}

// dctcpECNThreshold is the queue depth, in packets, at which every link
// marks ECN when Protocol is dctcp.
const dctcpECNThreshold = 10

// ecnThreshold is the links' ECN marking threshold: 0 (off) unless the
// protocol is DCTCP. It is structural: the links are built with it.
func (c *Config) ecnThreshold() int {
	if c.Protocol == ProtoDCTCP {
		return dctcpECNThreshold
	}
	return 0
}

// link and the three methods after it translate a resolved config's
// topology section into the builders' own configs, for resolve to
// Validate and buildNetwork to build. Every run uses the paper's link.
func (c *Config) link() topology.LinkConfig {
	link := topology.DefaultLinkConfig()
	link.ECNThreshold = c.ecnThreshold()
	return link
}

func (c *Config) fatTree() topology.FatTreeConfig {
	return topology.FatTreeConfig{K: c.K, HostsPerEdge: c.HostsPerEdge, Link: c.link(), Seed: c.Seed}
}

func (c *Config) multiHomed() topology.MultiHomedConfig {
	return topology.MultiHomedConfig{K: c.K, HostsPerEdge: c.HostsPerEdge, Link: c.link(), Seed: c.Seed}
}

func (c *Config) dumbbell() topology.DumbbellConfig {
	return topology.DumbbellConfig{HostsPerSide: c.K * c.HostsPerEdge / 2, Link: c.link()}
}

// buildNetwork constructs the resolved config's topology.
func (c *Config) buildNetwork(eng *sim.Engine) *topology.Network {
	switch c.Topology {
	case TopoFatTree:
		return &topology.NewFatTree(eng, c.fatTree()).Network
	case TopoMultiHomed:
		return &topology.NewMultiHomed(eng, c.multiHomed()).Network
	default: // TopoDumbbell: resolve admits nothing else
		return &topology.NewDumbbell(eng, c.dumbbell()).Network
	}
}
