package mmptcp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// tiny returns a fast-running config for integration tests.
func tiny(proto Protocol, flows int) Config {
	cfg := SmallConfig(proto, flows)
	cfg.Seed = 1
	return cfg
}

func TestRunTCPSmoke(t *testing.T) {
	res, err := Run(tiny(ProtoTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 100 {
		t.Errorf("spawned = %d", res.Spawned)
	}
	if res.ShortSummary.Count+res.ShortSummary.Incomplete != 100 {
		t.Errorf("short accounting: %+v", res.ShortSummary)
	}
	if res.ShortSummary.Count < 95 {
		t.Errorf("only %d/100 short flows completed", res.ShortSummary.Count)
	}
	if res.ShortSummary.MeanMs <= 0 {
		t.Error("zero mean FCT")
	}
	if len(res.LongFlows) == 0 {
		t.Fatal("no long flows")
	}
	if res.LongThroughputMbps <= 0 {
		t.Error("zero long-flow throughput")
	}
	if res.Events == 0 || res.Elapsed == 0 {
		t.Error("no events processed")
	}
	// Every layer of a FatTree must appear in the report.
	for _, layer := range []netem.Layer{netem.LayerHost, netem.LayerEdge, netem.LayerAgg} {
		if _, ok := res.Layers[layer]; !ok {
			t.Errorf("layer %v missing from report", layer)
		}
	}
}

func TestRunRecordsInSpawnOrder(t *testing.T) {
	res, err := Run(tiny(ProtoMMPTCP, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShortFlows) != 60 {
		t.Fatalf("records = %d", len(res.ShortFlows))
	}
	var last sim.Time
	for i, r := range res.ShortFlows {
		if r.Start < last {
			t.Fatalf("record %d out of spawn order", i)
		}
		last = r.Start
		if r.Class != metrics.ShortFlow {
			t.Fatalf("record %d has class %v", i, r.Class)
		}
		if r.Size != 70_000 {
			t.Fatalf("record %d size %d", i, r.Size)
		}
		if r.Completed && r.End < r.Start {
			t.Fatalf("record %d negative FCT", i)
		}
	}
}

// TestHeadlineShape asserts the paper's §3 comparison at reduced scale:
// MMPTCP completes short flows with a much smaller standard deviation
// and far fewer RTO-affected connections than MPTCP with 8 subflows,
// without sacrificing long-flow throughput.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline comparison is slow")
	}
	mp, err := Run(tiny(ProtoMPTCP, 300))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := Run(tiny(ProtoMMPTCP, 300))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MPTCP : %v", mp.ShortSummary)
	t.Logf("MMPTCP: %v", mm.ShortSummary)

	if mm.ShortSummary.StdMs >= mp.ShortSummary.StdMs {
		t.Errorf("MMPTCP std %.1f >= MPTCP std %.1f; paper expects a collapse",
			mm.ShortSummary.StdMs, mp.ShortSummary.StdMs)
	}
	if mm.ShortSummary.WithRTO*2 >= mp.ShortSummary.WithRTO {
		t.Errorf("MMPTCP RTO flows %d vs MPTCP %d; want far fewer",
			mm.ShortSummary.WithRTO, mp.ShortSummary.WithRTO)
	}
	if mm.ShortSummary.MeanMs >= mp.ShortSummary.MeanMs {
		t.Errorf("MMPTCP mean %.1f >= MPTCP mean %.1f; paper expects an improvement",
			mm.ShortSummary.MeanMs, mp.ShortSummary.MeanMs)
	}
	// Long-flow throughput within 15% of each other (§3: "the same").
	ratio := mm.LongThroughputMbps / mp.LongThroughputMbps
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("long-flow throughput ratio MMPTCP/MPTCP = %.2f; want about 1", ratio)
	}
}

// TestRunValidation: every config a user can write either runs or comes
// back as an error naming the offending field — never a panic. The rules
// are per topology: what a FatTree rejects a dumbbell may accept.
func TestRunValidation(t *testing.T) {
	with := func(mutate func(*Config)) Config {
		cfg := tiny(ProtoTCP, 5)
		mutate(&cfg)
		return cfg
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		cfg  Config
		want string // substring of the error
	}{
		{Config{}, "ShortFlows"},
		{Config{Protocol: "bogus", ShortFlows: 1, ArrivalRate: 1}, "protocol"},
		{Config{Protocol: ProtoTCP}, "ShortFlows"},
		{Config{Protocol: ProtoTCP, ShortFlows: 5}, "ArrivalRate"},
		{Config{Protocol: ProtoTCP, ShortFlows: 5, ArrivalRate: 1, LongFraction: 1.5}, "LongFraction"},
		{Config{Protocol: ProtoTCP, ShortFlows: 5, ArrivalRate: 1, Topology: "ring"}, "topology"},

		{with(func(c *Config) { c.K = 3 }), "K"},
		{with(func(c *Config) { c.K = -2 }), "K"},
		{with(func(c *Config) { c.HostsPerEdge = -1 }), "HostsPerEdge"},
		{with(func(c *Config) { c.Topology = TopoDumbbell; c.K, c.HostsPerEdge = 1, 1 }), "K 1"},
		{with(func(c *Config) { c.Topology = TopoMultiHomed; c.K = 2 }), "K 2"},
		{with(func(c *Config) { c.HotspotFraction = -0.1 }), "HotspotFraction"},
		{with(func(c *Config) { c.HotspotFraction = 1.5 }), "HotspotFraction"},
		{with(func(c *Config) { c.HotspotFraction = nan }), "HotspotFraction"},
		{with(func(c *Config) { c.ArrivalRate = nan }), "ArrivalRate"},
		{with(func(c *Config) { c.ArrivalRate = inf }), "ArrivalRate"},
		{with(func(c *Config) { c.LongFraction = nan }), "LongFraction"},
		{with(func(c *Config) { c.LongFraction = -inf }), "LongFraction"},
		{with(func(c *Config) { c.MaxSimTime = -1 }), "MaxSimTime"},
		{with(func(c *Config) { c.Warmup = -1 }), "Warmup"},
		{with(func(c *Config) { c.Subflows = -1 }), "Subflows"},
		{with(func(c *Config) { c.Subflows = 300 }), "Subflows"},     // used to panic: duplicate endpoint
		{with(func(c *Config) { c.Subflows = 1 << 40 }), "Subflows"}, // used to allocate without bound
		// Fabrics too big to build used to be allocated anyway.
		{with(func(c *Config) { c.K = 1000 }), "forwarding table"},
		{with(func(c *Config) { c.HostsPerEdge = 1 << 30 }), "forwarding table"},
		{with(func(c *Config) { c.Topology = TopoMultiHomed; c.K = 1000 }), "forwarding table"},
		{with(func(c *Config) { c.Topology = TopoDumbbell; c.K, c.HostsPerEdge = 2, 1<<25 }), "forwarding table"},
		{with(func(c *Config) { c.K, c.HostsPerEdge = 2, 300_000 }), "links"},
		{with(func(c *Config) { c.SwitchBytes = -1 }), "SwitchBytes"},
		{with(func(c *Config) { c.ShortFlowSize = -1 }), "ShortFlowSize"},
		{with(func(c *Config) { c.Strategy = 7 }), "Strategy"},
		{with(func(c *Config) { c.PSThreshold = -1 }), "PSThreshold"},
		// NaN fails every comparison, so a range check must be written to
		// reject it rather than to accept only what lies outside.
		{with(func(c *Config) { c.Faults.Events = DegradeCables(LayerAgg, 1, Millisecond, 0, nan, 0) }), "capacity factor"},
		{with(func(c *Config) { c.Faults.Events = DegradeCables(LayerAgg, 1, Millisecond, 0, 0.5, nan) }), "loss rate"},
	}
	for i, tc := range cases {
		if _, err := Run(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want an error mentioning %q", i, err, tc.want)
		}
	}
	// The smallest fabric each topology admits runs, and so does the
	// widest subflow fan-out: a 1-byte switch threshold opens all 127
	// MPTCP-phase subflows, the last on subflow ID 127.
	for _, ok := range []Config{
		with(func(c *Config) { c.K, c.HostsPerEdge = 2, 1 }),
		with(func(c *Config) { c.Topology = TopoDumbbell; c.K, c.HostsPerEdge = 2, 1 }),
		with(func(c *Config) { c.Topology = TopoMultiHomed; c.K, c.HostsPerEdge = 4, 1 }),
		with(func(c *Config) { c.Protocol, c.Subflows, c.SwitchBytes = ProtoMMPTCP, 127, 1 }),
	} {
		ok.ShortFlows, ok.LongFraction, ok.MaxSimTime = 1, -1, Second
		res, err := Run(ok)
		if err != nil {
			t.Errorf("%s K=%d HostsPerEdge=%d Subflows=%d: %v", ok.Topology, ok.K, ok.HostsPerEdge, ok.Subflows, err)
		} else if res.ShortSummary.Count != 1 {
			t.Errorf("%s K=%d HostsPerEdge=%d Subflows=%d: completed %d of 1 flows",
				ok.Topology, ok.K, ok.HostsPerEdge, ok.Subflows, res.ShortSummary.Count)
		}
	}
}

func TestRunNoLongFlows(t *testing.T) {
	cfg := tiny(ProtoTCP, 50)
	cfg.LongFraction = -1 // disable background traffic
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LongFlows) != 0 {
		t.Fatalf("long flows = %d, want 0", len(res.LongFlows))
	}
	// Without background traffic, short flows finish fast and cleanly.
	if res.ShortSummary.Count != 50 {
		t.Errorf("completed = %d", res.ShortSummary.Count)
	}
	if res.ShortSummary.WithRTO > 2 {
		t.Errorf("unloaded network produced %d RTO flows", res.ShortSummary.WithRTO)
	}
}

func TestRunMMPTCPPhaseSwitchesOnLongFlows(t *testing.T) {
	res, err := Run(tiny(ProtoMMPTCP, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Every unbounded long flow must have switched to the MPTCP phase.
	if res.PhaseSwitches != len(res.LongFlows) {
		t.Errorf("phase switches = %d, long flows = %d", res.PhaseSwitches, len(res.LongFlows))
	}
}

func TestRunHotspot(t *testing.T) {
	cfg := tiny(ProtoMMPTCP, 80)
	cfg.HotspotFraction = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, r := range res.ShortFlows {
		if r.Dst == 0 {
			hot++
		}
	}
	if hot < len(res.ShortFlows)/4 {
		t.Errorf("only %d/%d flows hit the hotspot", hot, len(res.ShortFlows))
	}
}

func TestRunDumbbellTopology(t *testing.T) {
	cfg := Config{
		Topology:     TopoDumbbell,
		K:            2,
		HostsPerEdge: 4, // 4 hosts per side
		Protocol:     ProtoTCP,
		ShortFlows:   30,
		ArrivalRate:  5,
		Seed:         3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count == 0 {
		t.Error("no completions on dumbbell")
	}
}

func TestRunMultiHomedTopology(t *testing.T) {
	cfg := Config{
		Topology:     TopoMultiHomed,
		K:            4,
		HostsPerEdge: 2,
		Protocol:     ProtoMMPTCP,
		ShortFlows:   30,
		ArrivalRate:  5,
		Seed:         4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count == 0 {
		t.Error("no completions on multi-homed FatTree")
	}
}

// TestPaperLinkDefinedOnce pins the one definition of the paper's link:
// every run's links are topology.DefaultLinkConfig, and DCTCP's differ
// only by their ECN marking threshold.
func TestPaperLinkDefinedOnce(t *testing.T) {
	for _, proto := range []Protocol{ProtoTCP, ProtoMPTCP, ProtoMMPTCP, ProtoDCTCP} {
		cfg := SmallConfig(proto, 10)
		if err := cfg.resolve(true); err != nil {
			t.Fatal(err)
		}
		want := topology.DefaultLinkConfig()
		if proto == ProtoDCTCP {
			want.ECNThreshold = 10
		}
		if got := cfg.link(); got != want {
			t.Errorf("%s: links %+v, want %+v", proto, got, want)
		}
	}
}

func TestDialSingleFlow(t *testing.T) {
	eng := sim.NewEngine()
	ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	cfg := Config{Protocol: ProtoMMPTCP}
	conn, err := Dial(&ft.Network, cfg, DialConfig{
		FlowID: 1, Src: 0, Dst: 15, Size: 70_000, RNG: sim.NewRNG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	mc, ok := MMPTCPConn(conn)
	if !ok {
		t.Fatal("MMPTCPConn failed on an MMPTCP connection")
	}
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("single dialed flow incomplete")
	}
	if mc.Switched() {
		t.Error("70KB flow switched phases")
	}
	if _, ok := MMPTCPConn(&tcpConn{}); ok {
		t.Error("MMPTCPConn succeeded on a TCP connection")
	}
}

// TestDialValidation: Dial is exported, so what arrives is checked —
// endpoints outside the network, a missing RNG and a flow ID wider than a
// packet's 32 bits are errors, not index or nil-pointer panics or flow
// IDs that wrap.
func TestDialValidation(t *testing.T) {
	eng := sim.NewEngine()
	net, err := NewNetwork(eng, Config{Protocol: ProtoTCP, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	hosts := len(net.Hosts)
	for _, tc := range []struct {
		cfg  Config
		d    DialConfig
		want string
	}{
		{Config{Protocol: ProtoTCP}, DialConfig{Src: -1, Dst: 1, RNG: sim.NewRNG(1)}, "Src"},
		{Config{Protocol: ProtoMPTCP}, DialConfig{Src: hosts, Dst: 1, RNG: sim.NewRNG(1)}, "Src"},
		{Config{Protocol: ProtoMMPTCP}, DialConfig{Src: 0, Dst: hosts, RNG: sim.NewRNG(1)}, "Dst"},
		{Config{Protocol: ProtoDCTCP}, DialConfig{Src: 0, Dst: -1, RNG: sim.NewRNG(1)}, "Dst"},
		{Config{Protocol: ProtoMMPTCP}, DialConfig{Src: 0, Dst: 1}, "RNG"},
		{Config{Protocol: "bogus"}, DialConfig{Src: 0, Dst: 1, RNG: sim.NewRNG(1)}, "protocol"},
		{Config{Protocol: ProtoTCP, Subflows: -1}, DialConfig{Src: 0, Dst: 1, RNG: sim.NewRNG(1)}, "Subflows"},
		{Config{Protocol: ProtoMMPTCP}, DialConfig{FlowID: 1 << 32, Src: 0, Dst: 1, RNG: sim.NewRNG(1)}, "FlowID"},
	} {
		if _, err := Dial(net, tc.cfg, tc.d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Dial(%s, %+v): err = %v, want an error mentioning %q", tc.cfg.Protocol, tc.d, err, tc.want)
		}
	}
}

func TestRunDCTCPBaseline(t *testing.T) {
	res, err := Run(tiny(ProtoDCTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count < 95 {
		t.Fatalf("only %d/100 DCTCP short flows completed", res.ShortSummary.Count)
	}
	if res.LongThroughputMbps <= 0 {
		t.Error("no long-flow throughput")
	}
	// ECN keeps the fabric's time-averaged queues near the marking
	// threshold, well below what drop-tail Reno sustains.
	tcpRes, err := Run(tiny(ProtoTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	dq := res.Layers[netem.LayerEdge].AvgQueue
	tq := tcpRes.Layers[netem.LayerEdge].AvgQueue
	if dq >= tq {
		t.Errorf("DCTCP edge avg queue %.2f >= TCP %.2f; ECN not effective", dq, tq)
	}
}

func TestRunAdaptiveThresholdMode(t *testing.T) {
	cfg := tiny(ProtoMMPTCP, 80)
	cfg.PSThreshold = core.ThresholdAdaptive
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count < 75 {
		t.Errorf("completed = %d/80 with adaptive threshold", res.ShortSummary.Count)
	}
}

func TestRunDeadlineMissRate(t *testing.T) {
	res, err := Run(tiny(ProtoMPTCP, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMissRate <= 0 || res.DeadlineMissRate >= 1 {
		t.Errorf("deadline miss rate = %v, want in (0,1) under load", res.DeadlineMissRate)
	}
	// Unloaded network: nothing misses a 200ms deadline.
	cfg := tiny(ProtoTCP, 50)
	cfg.LongFraction = -1
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.DeadlineMissRate != 0 {
		t.Errorf("unloaded miss rate = %v, want 0", clean.DeadlineMissRate)
	}
}
