package main

import (
	"math"

	mmptcp "repro"
)

// A workload is one set of simulator inputs. Four of them are single
// mmptcp.Run calls on a fixed virtual-time horizon; sweep_tiny is one
// mmptcp.RunSweep call over many tiny replicates that run to completion.
//
// Fixed horizon: every single run ends at exactly MaxSimTime, so the
// simulated interval — the numerator of realtime_factor — is the same for
// every seed. Run to completion, host time follows the seed's slowest flow
// (whether the last one sat in an RTO) instead of the simulator. A run only
// stops early when every short flow has been spawned and has completed;
// each workload says below why that does not happen.
type workload struct {
	name string
	why  string

	// config builds the single-run Config for (seed, scale); nil for the
	// sweep workload.
	config func(seed uint64, scale float64) mmptcp.Config
	// sweep builds the replicate configs and options; nil otherwise.
	sweep func(seed uint64, scale float64) ([]mmptcp.Config, mmptcp.SweepOptions)

	// mustComplete marks workloads whose flows all have to finish
	// (fault-free, run to completion). Fixed-horizon runs legitimately end
	// with flows in flight.
	mustComplete bool
	// seqOf names the sequential twin a sharded workload is compared
	// against (event inflation, speed-up, FCT drift).
	seqOf string
	// ringOverhead asks the traced run to repeat the workload with the
	// flight recorder in ring mode.
	ringOverhead bool
	// heapDepth is the pending-event depth the engine probes run at.
	heapDepth int
	// recomputeLayer is the layer whose cable the routing probe fails.
	recomputeLayer mmptcp.Layer
}

// scaleTime shrinks a virtual duration, keeping at least one microsecond.
func scaleTime(t mmptcp.SimTime, scale float64) mmptcp.SimTime {
	s := mmptcp.SimTime(float64(t) * scale)
	if s < mmptcp.Microsecond {
		s = mmptcp.Microsecond
	}
	return s
}

// scaleCount shrinks a count, keeping at least min.
func scaleCount(n int, scale float64, min int) int {
	s := int(math.Round(float64(n) * scale))
	if s < min {
		s = min
	}
	return s
}

// faultRNGStream keeps the benchmark's own draws (which cables fail) off
// every stream the simulator derives from Config.Seed.
const faultRNGStream = 0xbe7c4

// cableCuts schedules n agg–core cable cuts, the i-th at first + i*every,
// each repaired after repair. The times are fixed; which of the fabric's
// cables fail is drawn from the seed. Both directions of a cable fail and
// recover together (links 2c and 2c+1 of the layer).
func cableCuts(seed uint64, cables, n int, first, every, repair mmptcp.SimTime) []mmptcp.FaultEvent {
	rng := mmptcp.NewRNGStream(seed, faultRNGStream)
	var events []mmptcp.FaultEvent
	for i := 0; i < n; i++ {
		cable := rng.Intn(cables)
		at := first + mmptcp.SimTime(i)*every
		for dir := 0; dir < 2; dir++ {
			events = append(events,
				mmptcp.FaultEvent{At: at, Kind: mmptcp.FaultLinkDown, Layer: mmptcp.LayerAgg, Index: 2*cable + dir},
				mmptcp.FaultEvent{At: at + repair, Kind: mmptcp.FaultLinkUp, Layer: mmptcp.LayerAgg, Index: 2*cable + dir})
		}
	}
	return events
}

// paperK8 is the paper's Figure-1 fabric and traffic mix: 512 servers at
// 4:1, one third of them long senders, 70 KB shorts arriving at 2.5 per
// second per sender from 100 ms on. The 341 short senders spawn the 200th
// flow around 335 ms (±16 ms), so all 200 start before the 400 ms horizon —
// the same flow count for every seed — and about a quarter of them are
// still in flight at it, behind the long flows or in an RTO.
func paperK8(seed uint64, scale float64, shards int) mmptcp.Config {
	return mmptcp.Config{
		Topology:      mmptcp.TopoFatTree,
		K:             8,
		HostsPerEdge:  16,
		Protocol:      mmptcp.ProtoMMPTCP,
		ShortFlowSize: 70_000,
		ShortFlows:    scaleCount(200, scale, 4),
		ArrivalRate:   2.5,
		Warmup:        scaleTime(100*mmptcp.Millisecond, scale),
		MaxSimTime:    scaleTime(400*mmptcp.Millisecond, scale),
		Seed:          seed,
		Shards:        shards,
	}
}

// k16Churn is the 1,024-host K=16 fabric under a handful of agg–core cable
// cuts. The cut times are fixed and the cables are drawn from the seed, so
// every seed pays for the same number of fabric-wide recomputes; a sampled
// MTBF model at this horizon gave 14 to 35 recomputes (and 7.6 to 14.7 s)
// across three seeds. The 100 shorts all start within 2 ms of the 10 ms
// warm-up; a fifth of them are still in flight at the horizon.
func k16Churn(seed uint64, scale float64) mmptcp.Config {
	// Cuts at 3 and 13 ms, repairs 15 ms later: with the 10 ms
	// reconvergence delay the four recomputes land at 13, 23, 28 and 38 ms.
	// Each costs 0.2 to 0.3 s here, so two cuts keep routing near a third
	// of the run, beside the event heap.
	events := cableCuts(seed, 16*8*8, scaleCount(2, scale, 1), // pods × aggs per pod × core uplinks per agg
		scaleTime(3*mmptcp.Millisecond, scale), scaleTime(10*mmptcp.Millisecond, scale), scaleTime(15*mmptcp.Millisecond, scale))
	return mmptcp.Config{
		Topology:      mmptcp.TopoFatTree,
		K:             16,
		HostsPerEdge:  8,
		Protocol:      mmptcp.ProtoMMPTCP,
		ShortFlowSize: 70_000,
		ShortFlows:    scaleCount(100, scale, 4),
		ArrivalRate:   100,
		Warmup:        scaleTime(10*mmptcp.Millisecond, scale),
		MaxSimTime:    scaleTime(60*mmptcp.Millisecond, scale),
		Seed:          seed,
		Faults: mmptcp.FaultsConfig{
			Events:          events,
			ReconvergeDelay: scaleTime(10*mmptcp.Millisecond, scale),
		},
		Routing: mmptcp.RoutingConfig{Mode: mmptcp.RoutingGlobal},
	}
}

// k8AccessChurn is single-path TCP on the paper fabric while host access
// links flap (MTBF 1 s per link, about 350 outages) over a trickle of ten
// agg–core cuts: hundreds of small incremental recomputes, most
// destinations memo-skipped. The host layer keeps the sampled model — its
// count is large enough to average — but the agg cuts are scheduled like
// k16Churn's: sampled at MTBF 8 s their number ranged over Poisson(11) and
// allocations with it, 1.85M to 3.71M across ten seeds. Shorts trickle in
// at 0.15 per second per sender until the horizon (about 30 of them), so
// the arrival stream never runs dry and the run cannot end early.
func k8AccessChurn(seed uint64, scale float64) mmptcp.Config {
	horizon := scaleTime(700*mmptcp.Millisecond, scale)
	events := cableCuts(seed, 8*4*4, scaleCount(10, scale, 1),
		scaleTime(20*mmptcp.Millisecond, scale), scaleTime(55*mmptcp.Millisecond, scale), scaleTime(100*mmptcp.Millisecond, scale))
	return mmptcp.Config{
		Topology:      mmptcp.TopoFatTree,
		K:             8,
		HostsPerEdge:  16,
		Protocol:      mmptcp.ProtoTCP,
		ShortFlowSize: 70_000,
		ShortFlows:    scaleCount(200, scale, 64),
		ArrivalRate:   0.15 / scale, // the horizon shrinks with scale; the number of shorts should not
		Warmup:        scaleTime(100*mmptcp.Millisecond, scale),
		MaxSimTime:    horizon,
		Seed:          seed,
		Faults: mmptcp.FaultsConfig{
			Events: events,
			Model: mmptcp.FaultModel{
				Layers: []mmptcp.FaultLayerModel{
					{Layer: mmptcp.LayerHost, MTBF: scaleTime(1*mmptcp.Second, scale), MTTR: scaleTime(50*mmptcp.Millisecond, scale)},
				},
				Horizon: horizon,
			},
			ReconvergeDelay: scaleTime(10*mmptcp.Millisecond, scale),
		},
		Routing: mmptcp.RoutingConfig{Mode: mmptcp.RoutingGlobal, Convergence: mmptcp.ConvergeAtomic},
	}
}

// sweepTiny is many 64-host replicates of eight short flows each, no long
// flows, run to completion two at a time: building the fabric, filling in
// defaults and collecting Results outweigh the simulated traffic.
func sweepTiny(seed uint64, scale float64) ([]mmptcp.Config, mmptcp.SweepOptions) {
	configs := make([]mmptcp.Config, scaleCount(1500, scale, 8))
	for i := range configs {
		configs[i] = mmptcp.Config{
			Topology:     mmptcp.TopoFatTree,
			K:            4,
			HostsPerEdge: 8,
			Protocol:     mmptcp.ProtoMMPTCP,
			ShortFlows:   8,
			ArrivalRate:  50,
			LongFraction: -1,
		}
	}
	return configs, mmptcp.SweepOptions{Workers: 2, Seed: seed}
}

var workloads = []workload{
	{
		name:           "paper_k8",
		why:            "Paper Fig.1 fabric: K=8, 512 hosts, mmptcp, 1/3 long flows, 200 shorts, 400 ms horizon, healthy, sequential; data plane and transports do the work, routing/faults/shard idle",
		config:         func(seed uint64, scale float64) mmptcp.Config { return paperK8(seed, scale, 0) },
		heapDepth:      100_000,
		recomputeLayer: mmptcp.LayerAgg,
	},
	{
		name:           "paper_k8_2shards",
		why:            "paper_k8 with Shards: 2, like for like; the only workload where barrier cost, event inflation and drift from the sequential oracle can show",
		config:         func(seed uint64, scale float64) mmptcp.Config { return paperK8(seed, scale, 2) },
		seqOf:          "paper_k8",
		heapDepth:      100_000,
		recomputeLayer: mmptcp.LayerAgg,
	},
	{
		name:           "k16_churn",
		why:            "K=16, 1,024 hosts, mmptcp, 100 shorts, 60 ms horizon, 2 seed-chosen agg-core cable cuts and repairs, global routing: deep event heap plus few fabric-wide recomputes",
		config:         k16Churn,
		heapDepth:      1_000_000,
		recomputeLayer: mmptcp.LayerAgg,
	},
	{
		name:           "k8_access_churn",
		why:            "K=8, 512 hosts, tcp, 700 ms, host links MTBF 1 s plus 10 scheduled agg-core cuts, global atomic routing: hundreds of small, mostly memo-skipped incremental recomputes",
		config:         k8AccessChurn,
		ringOverhead:   true,
		heapDepth:      100_000,
		recomputeLayer: mmptcp.LayerHost,
	},
	{
		name:           "sweep_tiny",
		why:            "RunSweep of 1,500 replicates, Workers 2, each K=4, 64 hosts, 8 shorts, no long flows: set-up, defaults, result collection and GC dominate, not steady state",
		sweep:          sweepTiny,
		mustComplete:   true,
		heapDepth:      1_000,
		recomputeLayer: mmptcp.LayerAgg,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
