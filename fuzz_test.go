package mmptcp

import (
	"math"
	"testing"

	"repro/internal/core"
)

// Byte positions of the fuzz program FuzzConfig decodes into a Config.
// A program shorter than the layout reads zeros — the defaults — for the
// rest, so a seed names only the fields it cares about.
const (
	fzTopology = iota
	fzProtocol
	fzK
	fzHostsPerEdge
	fzSubflows
	fzStrategy
	fzPSThreshold
	fzSwitchBytes
	fzFlags // bit 0 DeferPhaseSwitch, bit 1 one agg cable cut and repaired
	fzLongFraction
	fzShortFlowSize
	fzShortFlows
	fzArrivalRate
	fzWarmup
	fzHotspotFraction
	fzMaxSimTime
	fzRoutingMode
	fzConvergence
	fzSnapshot
	fzTraceMode
	fzDeadRTOs
	fzShards
	fzSeed
	fzLen
)

var (
	fzTopologies   = []TopologyKind{"", TopoFatTree, TopoMultiHomed, TopoDumbbell, "vl2", "ring"}
	fzProtocols    = []Protocol{ProtoTCP, ProtoMPTCP, ProtoMMPTCP, ProtoDCTCP, "", "quic"}
	fzRoutingModes = []RoutingMode{"", RoutingLocal, RoutingGlobal, "bogus"}
	fzConvergences = []ConvergenceMode{"", ConvergeAtomic, ConvergeStaggered, "bogus"}
	fzTraceModes   = []TraceMode{"", "off", TraceRing, TraceFull, "bogus"}
	fzSizes        = []int64{0, 1, 1400, 70_000, 200_000}
	fzSubflowNs    = []int64{0, 1, 2, 3, 8, 9, 127, 128, 300, 1 << 40}
	fzFractions    = []float64{0, 0.25, 0.5, 0.99, 1, 1.5, math.NaN(), math.Inf(1)}
	fzArrivals     = []float64{0, 1, 1000, 100_000, math.NaN(), math.Inf(1)}
)

// fzHuge in the K or HostsPerEdge byte decodes to an absurd magnitude
// (K 1000, HostsPerEdge 1<<30), which resolve must reject before it
// allocates anything.
const fzHuge = 0x7f

// fuzzConfig decodes a fuzz program: enum bytes index tables that include
// misses, numeric bytes are sign-and-magnitude (the top bit negates),
// and the fabric stays around 16 hosts and 50 ms so one run is
// milliseconds of host time — unless fzHuge asks for a fabric too big to
// build.
func fuzzConfig(prog []byte) Config {
	at := func(i int) byte {
		if i < len(prog) {
			return prog[i]
		}
		return 0
	}
	signed := func(i, mod int) int { // small signed range around zero
		return int(int8(at(i))) % mod
	}
	mag := func(i int, unit int64, mod int) int64 { // sign bit, magnitude*unit
		v := int64(int(at(i)&0x7f)%mod) * unit
		if at(i)&0x80 != 0 {
			return -v
		}
		return v
	}
	huge := func(i, mod, big int) int { // signed, or big for fzHuge
		if at(i) == fzHuge {
			return big
		}
		return signed(i, mod)
	}
	pick := func(i int, table []int64) int64 {
		v := table[int(at(i)&0x7f)%len(table)]
		if at(i)&0x80 != 0 {
			return -v
		}
		return v
	}
	frac := func(i int, table []float64) float64 {
		v := table[int(at(i)&0x7f)%len(table)]
		if at(i)&0x80 != 0 {
			return -v
		}
		return v
	}
	cfg := Config{
		Topology:        fzTopologies[int(at(fzTopology))%len(fzTopologies)],
		Protocol:        fzProtocols[int(at(fzProtocol))%len(fzProtocols)],
		K:               huge(fzK, 7, 1000),
		HostsPerEdge:    huge(fzHostsPerEdge, 5, 1<<30),
		Subflows:        int(pick(fzSubflows, fzSubflowNs)),
		Strategy:        core.Strategy(signed(fzStrategy, 4)),
		PSThreshold:     core.ThresholdMode(signed(fzPSThreshold, 5)),
		SwitchBytes:     pick(fzSwitchBytes, fzSizes),
		LongFraction:    frac(fzLongFraction, fzFractions),
		ShortFlowSize:   pick(fzShortFlowSize, fzSizes),
		ShortFlows:      int(at(fzShortFlows)%8) - 1, // -1..6
		ArrivalRate:     frac(fzArrivalRate, fzArrivals),
		Warmup:          SimTime(mag(fzWarmup, int64(Millisecond), 20)),
		HotspotFraction: frac(fzHotspotFraction, fzFractions),
		Seed:            uint64(at(fzSeed)),
		Shards:          signed(fzShards, 4),
	}
	// 1..50 ms either side of zero, never the 300 s default: that would
	// let a stranded flow run for minutes of host time.
	cfg.MaxSimTime = SimTime(1+int(at(fzMaxSimTime)&0x7f)%50) * Millisecond
	if at(fzMaxSimTime)&0x80 != 0 {
		cfg.MaxSimTime = -cfg.MaxSimTime
	}
	cfg.Routing.Mode = fzRoutingModes[int(at(fzRoutingMode))%len(fzRoutingModes)]
	cfg.Routing.Convergence = fzConvergences[int(at(fzConvergence))%len(fzConvergences)]
	cfg.Metrics.SnapshotInterval = SimTime(mag(fzSnapshot, int64(Millisecond), 20))
	cfg.Trace.Mode = fzTraceModes[int(at(fzTraceMode))%len(fzTraceModes)]
	cfg.Transport.DeadRTOs = signed(fzDeadRTOs, 4)
	cfg.Transport.DeferPhaseSwitch = at(fzFlags)&1 != 0
	if at(fzFlags)&2 != 0 {
		cfg.Faults.Events = FailCables(LayerAgg, 1, 5*Millisecond, 20*Millisecond)
		cfg.Faults.ReconvergeDelay = Millisecond
	}
	return cfg
}

// fuzzSeed returns a copy of base (nil: all defaults) with the
// (position, byte) pairs written over it.
func fuzzSeed(base []byte, pairs ...byte) []byte {
	prog := make([]byte, fzLen)
	copy(prog, base)
	for i := 0; i+1 < len(pairs); i += 2 {
		prog[pairs[i]] = pairs[i+1]
	}
	return prog
}

// fuzzSeeds is the corpus tier-1 runs: one valid 16-host config per
// protocol and topology, and one per protocol on "vl2", which resolve
// rejects like any unknown topology; then fourteen more configs resolve
// must reject: bad K and HostsPerEdge; negative SwitchBytes, Warmup,
// DeadRTOs and ShortFlowSize; a multi-homed K 2, staggered convergence
// under local repair and a NaN ArrivalRate; Subflows 300 and 128, whose
// subflow IDs would collide or wrap negative; and K 1000 and
// HostsPerEdge 1<<30, whose fabrics used to be allocated.
func fuzzSeeds() [][]byte {
	const neg = 0x80
	valid := func(topo, proto, k, hpe byte) []byte {
		return fuzzSeed(nil, fzTopology, topo, fzProtocol, proto, fzK, k, fzHostsPerEdge, hpe,
			fzShortFlows, 7, fzArrivalRate, 3, fzWarmup, 1, fzMaxSimTime, 49, fzSeed, 1)
	}
	var seeds [][]byte
	for proto := byte(0); proto < 4; proto++ {
		seeds = append(seeds,
			valid(1, proto, 4, 2), // fattree
			valid(2, proto, 4, 2), // multihomed
			valid(3, proto, 4, 4), // dumbbell
			valid(4, proto, 2, 4)) // "vl2": rejected
	}
	with := func(pairs ...byte) []byte { return fuzzSeed(valid(1, 2, 4, 2), pairs...) }
	return append(seeds,
		with(fzK, 3),
		with(fzK, 0xfe), // -2
		with(fzHostsPerEdge, 0xff),
		with(fzSwitchBytes, neg|1),
		with(fzWarmup, neg|1),
		with(fzDeadRTOs, 0xff), // -1
		with(fzShortFlowSize, neg|1),
		with(fzTopology, 2, fzK, 2),
		with(fzConvergence, 2),
		with(fzArrivalRate, 4), // NaN
		with(fzSubflows, 8),    // 300: a duplicate endpoint registration
		with(fzSubflows, 7),    // 128
		with(fzK, fzHuge),
		with(fzHostsPerEdge, fzHuge),
	)
}

// FuzzConfig: whatever a Config holds, Run returns an error or Results
// that add up — never a panic.
func FuzzConfig(f *testing.F) {
	for _, prog := range fuzzSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		cfg := fuzzConfig(prog)
		res, err := Run(cfg)
		if err != nil {
			return
		}
		if res.Spawned > cfg.ShortFlows {
			t.Errorf("spawned %d short flows, config asked for %d", res.Spawned, cfg.ShortFlows)
		}
		for _, r := range res.ShortFlows {
			if r.Completed && r.Delivered != r.Size {
				t.Errorf("flow %d completed with %d of %d bytes delivered", r.ID, r.Delivered, r.Size)
			}
		}
	})
}

// TestFuzzSeedsCoverBothOutcomes keeps the corpus honest: the valid seeds
// run and move data, the "vl2" seeds and the fourteen rejects come back
// as errors.
func TestFuzzSeedsCoverBothOutcomes(t *testing.T) {
	seeds := fuzzSeeds()
	for i, prog := range seeds {
		cfg := fuzzConfig(prog)
		res, err := Run(cfg)
		if bad := i >= len(seeds)-14 || cfg.Topology == "vl2"; bad != (err != nil) {
			t.Errorf("seed %d: err = %v, want an error: %v", i, err, bad)
		} else if !bad && res.ShortSummary.Count == 0 {
			t.Errorf("seed %d: no short flow completed: %+v", i, res.ShortSummary)
		}
	}
}
