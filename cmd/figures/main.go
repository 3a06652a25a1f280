// Command figures regenerates every figure and numerical claim from the
// paper's evaluation (and the roadmap experiments it announces), as text
// tables or CSV.
//
// Usage (`figures -h` lists every figure -fig names):
//
//	figures [-fig NAME|all] [-scale tiny|small|medium|paper] [-flows N]
//	        [-seed S] [-csv] [-workers N]
//
// Scales:
//
//	tiny   — K=4 FatTree, 16 hosts, 100 flows (CI smoke; seconds)
//	small  — K=4 FatTree, 64 hosts, 4:1 (default; minutes of wall time)
//	medium — the paper's 512-host 4:1 FatTree, reduced flow count
//	paper  — 512 hosts and the paper's 100k short flows (hours)
//
// Every multi-config scan runs through mmptcp.RunSweep, so independent
// experiments fan out across all CPUs (-workers caps them; -workers 1
// reproduces the old serial behaviour) and each worker recycles its
// engine and fabric across the same-shape configs of a scan. Each run is
// seeded from its own Config, so the tables are byte-identical for a
// given -seed at any worker count — parallelism and recycling change
// only the wall time.
//
// Absolute milliseconds differ from the paper's ns-3 testbed; the shapes
// (who wins, by how much, where the tails are) are the reproduction
// target.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	mmptcp "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// figure is one artefact -fig regenerates: run writes its table to w,
// as CSV under -csv when csv is set.
type figure struct {
	name, doc string
	csv       bool
	run       func(w io.Writer)
}

// figures is every figure, in the order -fig all prints them.
var figures = []figure{
	{"1a", "Figure 1(a): MPTCP short-flow FCT vs number of subflows, 1 to 9", false, fig1a},
	{"1b", "Figure 1(b): MPTCP (8 subflows) short-flow FCT scatter (-csv: per flow)", true, func(w io.Writer) { fig1bc(w, mmptcp.ProtoMPTCP, "b") }},
	{"1c", "Figure 1(c): MMPTCP short-flow FCT scatter (-csv: per flow)", true, func(w io.Writer) { fig1bc(w, mmptcp.ProtoMMPTCP, "c") }},
	{"stats", "§3 statistics: FCT, per-layer loss, long-flow goodput, MPTCP vs MMPTCP", false, stats},
	{"switch", "§2 ablation: data-volume vs congestion-event phase switching", false, switching},
	{"load", "short-flow arrival-rate sweep, MPTCP vs MMPTCP", false, load},
	{"hotspot", "half the short senders target host 0, MPTCP vs MMPTCP", false, hotspot},
	{"multihomed", "single- vs dual-homed FatTree (MMPTCP)", false, multihomed},
	{"coexist", "§3: TCP, MPTCP and MMPTCP share one dumbbell bottleneck (fixed fabric: ignores -scale, -flows)", false, coexist},
	{"dupthresh", "§2 ablation: packet-scatter dup-ACK threshold policy", false, dupthresh},
	{"threshold", "§2 ablation: data-volume switching threshold, 35 to 500 KB", false, thresholdSweep},
	{"dctcp", "§1 context: TCP and DCTCP baselines vs MMPTCP", false, dctcpBaseline},
	{"incast", "§1 objective 3: 24-to-1 burst of 70 KB flows (fixed fabric: ignores -scale, -flows)", false, incast},
	{"failure", "agg-core cable cuts: failed-cable count x reconvergence delay", false, failure},
	{"repair", "local vs global repair x failed-cable count, re-dialing on and off", false, repair},
	{"transient", "staggered convergence: per-hop flip delay x transport", false, transient},
	{"timeline", "rolling snapshots of one faulted MMPTCP run (-csv: CSV)", true, timeline},
	{"anatomy", "full trace of a faulted run's most-damaged short flow", false, anatomy},
}

// figUsage is -fig's help: one line per figure, then all.
func figUsage() string {
	usage := "figure to regenerate:"
	for _, f := range append(figures, figure{name: "all", doc: "every figure above, in this order"}) {
		usage += fmt.Sprintf("\n%-10s  %s", f.name, f.doc)
	}
	return usage
}

// csvFigures names the figures that take -csv, for its help and its
// misuse error.
func csvFigures() string {
	var names []string
	for _, f := range figures {
		if f.csv {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, ", ")
}

// scales are -scale's values; baseConfig builds each one.
var scales = []string{"tiny", "small", "medium", "paper"}

var (
	figFlag     = flag.String("fig", "all", figUsage())
	scaleFlag   = flag.String("scale", "small", "experiment scale: "+strings.Join(scales, ", "))
	flowsFlag   = flag.Int("flows", 0, "override the number of short flows")
	seedFlag    = flag.Uint64("seed", 1, "random seed")
	csvFlag     = flag.Bool("csv", false, "") // usage set in init, from the table
	workersFlag = flag.Int("workers", 0, "max concurrent experiments (0 = all CPUs, 1 = serial)")
	cpuProfFlag = flag.String("cpuprofile", "", "write a CPU profile of the regeneration to this file")
	memProfFlag = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

func init() {
	flag.Lookup("csv").Usage = "emit CSV instead of a table; only " + csvFigures() + " take it"
}

// check exits 1 on a failed run or export.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// selected returns the figures the flags select, or an error when a flag
// names something no figure has or that a selected figure would ignore.
func selected() ([]figure, error) {
	if !slices.Contains(scales, *scaleFlag) {
		return nil, fmt.Errorf("unknown -scale %q", *scaleFlag)
	}
	figs := figures
	if *figFlag != "all" {
		i := slices.IndexFunc(figures, func(f figure) bool { return f.name == *figFlag })
		if i < 0 {
			return nil, fmt.Errorf("unknown -fig %q", *figFlag)
		}
		figs = figures[i : i+1]
	}
	if *csvFlag && slices.ContainsFunc(figs, func(f figure) bool { return !f.csv }) {
		return nil, fmt.Errorf("-csv applies only to %s", csvFigures())
	}
	return figs, nil
}

func main() {
	flag.Parse()
	figs, err := selected()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProfFlag)
	check(err)
	for _, f := range figs {
		f.run(os.Stdout)
	}
	stopProf()
	check(prof.WriteHeap(*memProfFlag))
}

// baseConfig returns the scale-appropriate configuration.
func baseConfig(proto mmptcp.Protocol) mmptcp.Config {
	var cfg mmptcp.Config
	switch *scaleFlag {
	case "tiny":
		// CI smoke scale: 16 hosts, enough flows to exercise every code
		// path in seconds.
		cfg = mmptcp.Config{
			Topology:     mmptcp.TopoFatTree,
			K:            4,
			HostsPerEdge: 2,
			Protocol:     proto,
			ShortFlows:   100,
			ArrivalRate:  2.5,
			// Smoke runs must terminate promptly even when a scenario
			// strands single-path flows in RTO backoff; stragglers are
			// reported as incomplete rather than simulated for minutes.
			MaxSimTime: 30 * sim.Second,
		}
	case "small":
		cfg = mmptcp.SmallConfig(proto, 1000)
	case "medium":
		cfg = mmptcp.PaperConfig(proto, 2000)
	default: // "paper": main admits no other scale
		cfg = mmptcp.PaperConfig(proto, 100_000)
	}
	if *flowsFlag > 0 {
		cfg.ShortFlows = *flowsFlag
	}
	cfg.Seed = *seedFlag
	return cfg
}

// faultedConfig is baseConfig for the fault scans: the first cables
// agg-core cables are cut at failAt and repaired at repairAt, with routing
// reconverging reconverge after each change (no fault plan at all when
// cables is 0). The run is capped at 60 s of virtual time, so flows
// stranded in RTO backoff surface as deadline misses rather than
// dominating the scan's wall time.
func faultedConfig(proto mmptcp.Protocol, cables int, failAt, repairAt, reconverge sim.Time) mmptcp.Config {
	cfg := baseConfig(proto)
	if cfg.MaxSimTime == 0 || cfg.MaxSimTime > 60*sim.Second {
		cfg.MaxSimTime = 60 * sim.Second
	}
	if cables > 0 {
		cfg.Faults = mmptcp.FaultsConfig{
			Events:          mmptcp.FailCables(mmptcp.LayerAgg, cables, failAt, repairAt),
			ReconvergeDelay: reconverge,
		}
	}
	return cfg
}

// armRecovery turns on the scans' recovery axis: subflow re-dialing and,
// for MMPTCP under global routing, the convergence-deferred phase switch.
func armRecovery(cfg *mmptcp.Config) {
	cfg.Transport.DeadRTOs = 3
	cfg.Transport.RedialBudget = 8
	if cfg.Protocol == mmptcp.ProtoMMPTCP && cfg.Routing.Mode == mmptcp.RoutingGlobal {
		cfg.Transport.DeferPhaseSwitch = true
	}
}

func run(cfg mmptcp.Config) *mmptcp.Results {
	res, err := mmptcp.Run(cfg)
	check(err)
	return res
}

// sweep fans a scan's configs across the worker pool and returns the
// results in config order. Tables appear only once the whole scan is
// done, so progress goes to stderr — at -scale paper a scan is hours of
// wall time and a silent stdout is indistinguishable from a hang.
func sweep(configs []mmptcp.Config) []*mmptcp.Results {
	results, err := mmptcp.RunSweep(configs, mmptcp.SweepOptions{
		Workers: *workersFlag,
		OnResult: func(done, total, index int) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d experiments done\n", done, total)
		},
	})
	check(err)
	return results
}

// fig1a reproduces Figure 1(a): MPTCP short-flow completion time (mean
// and standard deviation) versus the number of subflows, 1 through 9.
func fig1a(w io.Writer) {
	configs := make([]mmptcp.Config, 0, 9)
	for n := 1; n <= 9; n++ {
		cfg := baseConfig(mmptcp.ProtoMPTCP)
		cfg.Subflows = n
		configs = append(configs, cfg)
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== Figure 1(a): MPTCP short-flow FCT vs number of subflows ==")
	fmt.Fprintln(w, "subflows  mean_ms  std_ms   p50_ms   p99_ms   rto_flows  completed")
	for i, res := range results {
		s := res.ShortSummary
		fmt.Fprintf(w, "%8d  %7.1f  %7.1f  %7.1f  %7.1f  %9d  %9d\n",
			configs[i].Subflows, s.MeanMs, s.StdMs, s.P50Ms, s.P99Ms, s.WithRTO, s.Count)
	}
	fmt.Fprintln(w)
}

// fig1bc reproduces Figure 1(b) (MPTCP, 8 subflows) or 1(c) (MMPTCP):
// the per-flow completion-time scatter.
func fig1bc(w io.Writer, proto mmptcp.Protocol, letter string) {
	cfg := baseConfig(proto)
	res := run(cfg)
	if *csvFlag {
		fmt.Fprintf(w, "# Figure 1(%s): %s per-flow completion times\n", letter, proto)
		fmt.Fprintln(w, "flow_index,fct_ms,timeouts")
		for i, r := range res.ShortFlows {
			if !r.Completed {
				continue
			}
			fmt.Fprintf(w, "%d,%.3f,%d\n", i, r.FCT().Milliseconds(), r.Timeouts)
		}
		return
	}
	fmt.Fprintf(w, "== Figure 1(%s): %s (8 subflows) short-flow completion scatter ==\n", letter, proto)
	h := metrics.NewFCTHistogram(50, 100, 200, 500, 1000, 2000, 5000)
	for _, r := range res.ShortFlows {
		if r.Completed {
			h.Observe(r.FCT())
		}
	}
	bounds := []string{"<=50ms", "<=100ms", "<=200ms", "<=500ms", "<=1s", "<=2s", "<=5s", ">5s"}
	fr := h.Fractions()
	for i, b := range bounds {
		fmt.Fprintf(w, "%8s  %6.2f%%  %s\n", b, fr[i]*100, strings.Repeat("#", int(fr[i]*60)))
	}
	fmt.Fprintf(w, "summary: %v\n\n", res.ShortSummary)
}

// stats reproduces the §3 numerical claims: mean/std short-flow FCT,
// per-layer loss rates, long-flow throughput and utilisation for MPTCP
// vs MMPTCP under the identical workload.
func stats(w io.Writer) {
	protos := []mmptcp.Protocol{mmptcp.ProtoMPTCP, mmptcp.ProtoMMPTCP}
	configs := make([]mmptcp.Config, len(protos))
	for i, proto := range protos {
		configs[i] = baseConfig(proto)
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== §3 statistics: MPTCP (8 subflows) vs MMPTCP (PS + 8 subflows) ==")
	fmt.Fprintln(w, "proto    mean_ms  std_ms  rto_flows  loss_edge-agg  loss_agg-core  long_tput_mbps  util_agg-core")
	for i, res := range results {
		s := res.ShortSummary
		edge := res.Layers[netem.LayerEdge]
		agg := res.Layers[netem.LayerAgg]
		fmt.Fprintf(w, "%-7s  %7.1f  %6.1f  %9d  %13.5f  %13.5f  %14.2f  %13.3f\n",
			protos[i], s.MeanMs, s.StdMs, s.WithRTO, edge.LossRate, agg.LossRate,
			res.LongThroughputMbps, agg.Utilisation)
	}
	fmt.Fprintln(w)
}

// switching compares the two §2 phase-switching strategies.
func switching(w io.Writer) {
	strats := []core.Strategy{core.SwitchDataVolume, core.SwitchCongestionEvent}
	configs := make([]mmptcp.Config, len(strats))
	for i, strat := range strats {
		configs[i] = baseConfig(mmptcp.ProtoMMPTCP)
		configs[i].Strategy = strat
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== §2 ablation: MMPTCP switching strategies ==")
	fmt.Fprintln(w, "strategy          mean_ms  std_ms  rto_flows  long_tput_mbps  phase_switches")
	for i, res := range results {
		s := res.ShortSummary
		fmt.Fprintf(w, "%-16s  %7.1f  %6.1f  %9d  %14.2f  %14d\n",
			strats[i], s.MeanMs, s.StdMs, s.WithRTO, res.LongThroughputMbps, res.PhaseSwitches)
	}
	fmt.Fprintln(w)
}

// load sweeps the short-flow arrival rate (roadmap: "network loads").
func load(w io.Writer) {
	type point struct {
		rate  float64
		proto mmptcp.Protocol
	}
	var points []point
	var configs []mmptcp.Config
	for _, rate := range []float64{1, 2.5, 5, 10} {
		for _, proto := range []mmptcp.Protocol{mmptcp.ProtoMPTCP, mmptcp.ProtoMMPTCP} {
			cfg := baseConfig(proto)
			cfg.ArrivalRate = rate
			points = append(points, point{rate, proto})
			configs = append(configs, cfg)
		}
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== Roadmap: effect of network load (arrival-rate sweep) ==")
	fmt.Fprintln(w, "rate_per_sender  proto    mean_ms  std_ms  rto_flows")
	for i, res := range results {
		s := res.ShortSummary
		fmt.Fprintf(w, "%15.1f  %-7s  %7.1f  %6.1f  %9d\n",
			points[i].rate, points[i].proto, s.MeanMs, s.StdMs, s.WithRTO)
	}
	fmt.Fprintln(w)
}

// hotspot redirects half the short senders at one host (roadmap:
// "effect of hotspots").
func hotspot(w io.Writer) {
	protos := []mmptcp.Protocol{mmptcp.ProtoMPTCP, mmptcp.ProtoMMPTCP}
	configs := make([]mmptcp.Config, len(protos))
	for i, proto := range protos {
		configs[i] = baseConfig(proto)
		configs[i].HotspotFraction = 0.5
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== Roadmap: hotspot (50% of short senders target host 0) ==")
	fmt.Fprintln(w, "proto    mean_ms  std_ms  p99_ms   rto_flows")
	for i, res := range results {
		s := res.ShortSummary
		fmt.Fprintf(w, "%-7s  %7.1f  %6.1f  %7.1f  %9d\n", protos[i], s.MeanMs, s.StdMs, s.P99Ms, s.WithRTO)
	}
	fmt.Fprintln(w)
}

// multihomed compares the plain FatTree against the dual-homed variant
// (roadmap: "multi-homed network topologies ... the more parallel paths
// at the access layer, the higher the burst tolerance").
func multihomed(w io.Writer) {
	topos := []mmptcp.TopologyKind{mmptcp.TopoFatTree, mmptcp.TopoMultiHomed}
	configs := make([]mmptcp.Config, len(topos))
	for i, topo := range topos {
		configs[i] = baseConfig(mmptcp.ProtoMMPTCP)
		configs[i].Topology = topo
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== Roadmap: single- vs dual-homed FatTree (MMPTCP) ==")
	fmt.Fprintln(w, "topology    mean_ms  std_ms  p99_ms   rto_flows")
	for i, res := range results {
		s := res.ShortSummary
		fmt.Fprintf(w, "%-10s  %7.1f  %6.1f  %7.1f  %9d\n", topos[i], s.MeanMs, s.StdMs, s.P99Ms, s.WithRTO)
	}
	fmt.Fprintln(w)
}

// dupthresh ablates the PS duplicate-ACK threshold policy (§2's two
// proposed mechanisms plus the standard-threshold strawman).
func dupthresh(w io.Writer) {
	modes := []core.ThresholdMode{
		core.ThresholdStandard, core.ThresholdTopology, core.ThresholdAdaptive,
	}
	configs := make([]mmptcp.Config, len(modes))
	for i, mode := range modes {
		configs[i] = baseConfig(mmptcp.ProtoMMPTCP)
		configs[i].PSThreshold = mode
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== §2 ablation: packet-scatter dup-ACK threshold policy ==")
	fmt.Fprintln(w, "policy    mean_ms  std_ms  rto_flows  short_retx")
	for i, res := range results {
		s := res.ShortSummary
		var retx int64
		for _, r := range res.ShortFlows {
			retx += r.Retransmissions
		}
		fmt.Fprintf(w, "%-8s  %7.1f  %6.1f  %9d  %10d\n", modes[i], s.MeanMs, s.StdMs, s.WithRTO, retx)
	}
	fmt.Fprintln(w)
}

// thresholdSweep ablates the data-volume switching threshold.
func thresholdSweep(w io.Writer) {
	kbs := []int64{35, 70, 100, 200, 500}
	configs := make([]mmptcp.Config, len(kbs))
	for i, kb := range kbs {
		configs[i] = baseConfig(mmptcp.ProtoMMPTCP)
		configs[i].SwitchBytes = kb * 1000
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== §2 ablation: data-volume switching threshold ==")
	fmt.Fprintln(w, "switch_kb  mean_ms  std_ms  rto_flows  long_tput_mbps")
	for i, res := range results {
		s := res.ShortSummary
		fmt.Fprintf(w, "%9d  %7.1f  %6.1f  %9d  %14.2f\n",
			kbs[i], s.MeanMs, s.StdMs, s.WithRTO, res.LongThroughputMbps)
	}
	fmt.Fprintln(w)
}

// dctcpBaseline adds the §1 single-path ECN baseline to the comparison.
func dctcpBaseline(w io.Writer) {
	protos := []mmptcp.Protocol{mmptcp.ProtoTCP, mmptcp.ProtoDCTCP, mmptcp.ProtoMMPTCP}
	configs := make([]mmptcp.Config, len(protos))
	for i, proto := range protos {
		configs[i] = baseConfig(proto)
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== §1 context: DCTCP baseline (needs switch ECN) vs MMPTCP ==")
	fmt.Fprintln(w, "proto    mean_ms  std_ms  rto_flows  long_tput_mbps  avg_queue_edge")
	for i, res := range results {
		s := res.ShortSummary
		fmt.Fprintf(w, "%-7s  %7.1f  %6.1f  %9d  %14.2f  %14.2f\n",
			protos[i], s.MeanMs, s.StdMs, s.WithRTO, res.LongThroughputMbps,
			res.Layers[netem.LayerEdge].AvgQueue)
	}
	fmt.Fprintln(w)
}

// incast fires simultaneous 70 KB flows from many senders at one host
// (§1 objective 3: "tolerance to sudden and high bursts of traffic").
func incast(w io.Writer) {
	fmt.Fprintln(w, "== §1 objective 3: incast burst tolerance (24 senders -> 1 host) ==")
	fmt.Fprintln(w, "proto    done    mean_ms  max_ms   timeouts")
	for _, proto := range []mmptcp.Protocol{mmptcp.ProtoTCP, mmptcp.ProtoMPTCP, mmptcp.ProtoMMPTCP} {
		eng := sim.NewEngine()
		cfg := mmptcp.Config{Protocol: proto, Topology: mmptcp.TopoFatTree, K: 4, HostsPerEdge: 8}
		net, err := mmptcp.NewNetwork(eng, cfg)
		check(err)
		rng := sim.NewRNG(*seedFlag)
		const senders = 24
		var fcts []float64
		var timeouts int64
		conns := make([]mmptcp.Conn, 0, senders)
		for i := 1; i <= senders; i++ {
			conn, err := mmptcp.Dial(net, cfg, mmptcp.DialConfig{
				FlowID: uint64(i), Src: i, Dst: 0, Size: 70_000, RNG: rng.Split(),
			})
			check(err)
			conns = append(conns, conn)
			start := 10 * sim.Millisecond
			conn.Receiver().OnComplete = func() {
				fcts = append(fcts, (eng.Now() - start).Milliseconds())
			}
			eng.At(start, conn.Start)
		}
		eng.RunUntil(60 * sim.Second)
		var mean, max float64
		for _, f := range fcts {
			mean += f
			if f > max {
				max = f
			}
		}
		if len(fcts) > 0 {
			mean /= float64(len(fcts))
		}
		for _, c := range conns {
			timeouts += c.Stats().Timeouts
		}
		fmt.Fprintf(w, "%-7s  %2d/%-2d  %8.1f  %7.1f  %8d\n",
			proto, len(fcts), senders, mean, max, timeouts)
	}
	fmt.Fprintln(w)
}

// failure is the network-dynamics scan (roadmap: robustness under
// churn): agg-core cables are cut shortly after the short flows start
// arriving and repaired mid-run, and the scan sweeps (a) how many cables
// die and (b) how long routing takes to reconverge around them, for TCP
// vs MPTCP vs MMPTCP. Short-flow FCT tails show who survives the
// blackhole window; long-flow goodput shows who recovers after repair.
func failure(w io.Writer) {
	const (
		failAt   = 200 * sim.Millisecond
		repairAt = 700 * sim.Millisecond
	)
	protos := []mmptcp.Protocol{mmptcp.ProtoTCP, mmptcp.ProtoMPTCP, mmptcp.ProtoMMPTCP}

	type point struct {
		proto      mmptcp.Protocol
		cables     int
		reconverge sim.Time
	}
	var points []point
	var configs []mmptcp.Config
	seen := make(map[point]bool)
	add := func(proto mmptcp.Protocol, cables int, reconverge sim.Time) {
		if cables == 0 {
			// Healthy baseline: no fault plan is installed, so no
			// reconvergence delay applies — record 0 so the table says
			// what actually ran.
			reconverge = 0
		}
		// The two scans share their crossing point (the fixed-cables /
		// fixed-reconvergence row); run it once.
		p := point{proto, cables, reconverge}
		if seen[p] {
			return
		}
		seen[p] = true
		points = append(points, p)
		configs = append(configs, faultedConfig(proto, cables, failAt, repairAt, reconverge))
	}
	// Scan 1: failed-cable count at a fixed 10ms reconvergence delay.
	for _, cables := range []int{0, 1, 2, 4} {
		for _, proto := range protos {
			add(proto, cables, 10*sim.Millisecond)
		}
	}
	// Scan 2: reconvergence delay at a fixed 2 dead cables.
	for _, rc := range []sim.Time{0, 10 * sim.Millisecond, 50 * sim.Millisecond, 200 * sim.Millisecond} {
		for _, proto := range protos {
			add(proto, 2, rc)
		}
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== Roadmap: robustness under core-link failure (agg-core cables cut at 200ms, repaired at 700ms) ==")
	fmt.Fprintln(w, "cables  reconv_ms  proto    mean_ms  p99_ms   max_ms   rto_flows  miss_pct  long_tput_mbps  blackholed  noroute")
	for i, res := range results {
		p := points[i]
		s := res.ShortSummary
		fmt.Fprintf(w, "%6d  %9.1f  %-7s  %7.1f  %7.1f  %7.1f  %9d  %8.1f  %14.2f  %10d  %7d\n",
			p.cables, p.reconverge.Milliseconds(), p.proto,
			s.MeanMs, s.P99Ms, s.MaxMs, s.WithRTO, res.DeadlineMissRate*100,
			res.LongThroughputMbps, res.Blackholed, res.NoRouteDrops)
	}
	fmt.Fprintln(w)
}

// repair is the local-vs-global repair experiment the routing control
// plane opens: agg-core cables are cut at 200ms and stay dead until
// 2.5s, and the scan compares the two repair models across failed-cable
// counts for TCP and MMPTCP. Local repair (the PR-2 baseline) only
// excludes each switch's own dead links, so upstream ECMP keeps hashing
// onto cores that lost their sole downlink to a pod — visible as
// NoRoute drops for the whole outage. Global repair recomputes
// reachability 10ms after each transition and steers around the
// cripples; the recompute count and surviving override entries land in
// the table.
func repair(w io.Writer) {
	const (
		failAt     = 200 * sim.Millisecond
		repairAt   = 2500 * sim.Millisecond
		reconverge = 10 * sim.Millisecond
	)
	protos := []mmptcp.Protocol{mmptcp.ProtoTCP, mmptcp.ProtoMMPTCP}
	modes := []mmptcp.RoutingMode{mmptcp.RoutingLocal, mmptcp.RoutingGlobal}

	type point struct {
		cables   int
		mode     mmptcp.RoutingMode
		proto    mmptcp.Protocol
		recovery bool
	}
	// On the K=4 fabrics cutting the first 4 agg-core cables would sever
	// every pod-0 uplink — a physical partition no routing model can
	// repair — so the scan stops at 3 (pod 0 down to one surviving
	// uplink).
	var points []point
	var configs []mmptcp.Config
	for _, cables := range []int{0, 1, 2, 3} {
		for _, mode := range modes {
			if cables == 0 && mode != mmptcp.RoutingLocal {
				continue // healthy baseline: the mode is irrelevant, run once
			}
			for _, proto := range protos {
				// The recovery axis: multipath transports additionally run
				// with subflow re-dialing armed, so the table shows goodput
				// recovering when a replacement subflow re-hashes onto a
				// live path rather than at RTO-backoff expiry. Single-path
				// TCP has nothing to re-dial; the healthy baseline has
				// nothing to recover from.
				recoveries := []bool{false}
				if cables > 0 && proto != mmptcp.ProtoTCP {
					recoveries = append(recoveries, true)
				}
				for _, recovery := range recoveries {
					cfg := faultedConfig(proto, cables, failAt, repairAt, reconverge)
					if cables > 0 {
						cfg.Routing.Mode = mode
					}
					if recovery {
						armRecovery(&cfg)
					}
					points = append(points, point{cables, mode, proto, recovery})
					configs = append(configs, cfg)
				}
			}
		}
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== Roadmap: local vs global repair (agg-core cables cut at 200ms, repaired at 2.5s, 10ms reconvergence) ==")
	fmt.Fprintln(w, "cables  mode    proto    recov  mean_ms  p99_ms   max_ms   miss_pct  long_tput_mbps  noroute  blackholed  recomputes  redials  recovered")
	for i, res := range results {
		p := points[i]
		mode := string(p.mode)
		if p.cables == 0 {
			mode = "-"
		}
		recov := "off"
		if p.recovery {
			recov = "on"
		}
		s := res.ShortSummary
		fmt.Fprintf(w, "%6d  %-6s  %-7s  %-5s  %7.1f  %7.1f  %7.1f  %8.1f  %14.2f  %7d  %10d  %10d  %7d  %9d\n",
			p.cables, mode, p.proto, recov, s.MeanMs, s.P99Ms, s.MaxMs,
			res.DeadlineMissRate*100, res.LongThroughputMbps,
			res.NoRouteDrops, res.Blackholed, res.Routing.Recomputes,
			res.Redials, res.RedialRecovered)
	}
	fmt.Fprintln(w)
}

// transient is the staged-convergence experiment per-switch FIB epochs
// open: agg-core cables are cut at 200ms and repaired at 900ms under
// global routing with *staggered* convergence, and the scan sweeps the
// per-hop flip propagation delay for TCP vs MPTCP vs MMPTCP. At 0ms per
// hop every switch flips with the recompute (the atomic baseline); as
// the delay grows the fabric spends longer disagreeing with itself, and
// the table splits the damage of that window out of the totals:
// micro-loop deaths (loop_drops, hop-backstop kills while the window is
// open), blackholes bred by the disagreement itself (tn_noroute,
// packets arriving at an already-flipped switch whose new table has no
// way forward), lookups served by stale FIB epochs, and the cumulative
// window duration. Packet scatter rides the window the same way it
// rides the failure — MMPTCP's tail grows far slower with the delay
// than single-path TCP's.
func transient(w io.Writer) {
	const (
		failAt   = 200 * sim.Millisecond
		repairAt = 900 * sim.Millisecond
		reconv   = 10 * sim.Millisecond
		cables   = 2
	)
	protos := []mmptcp.Protocol{mmptcp.ProtoTCP, mmptcp.ProtoMPTCP, mmptcp.ProtoMMPTCP}
	perHops := []sim.Time{0, 1 * sim.Millisecond, 5 * sim.Millisecond, 20 * sim.Millisecond}

	type point struct {
		perHop   sim.Time
		proto    mmptcp.Protocol
		recovery bool
	}
	var points []point
	var configs []mmptcp.Config
	for _, perHop := range perHops {
		for _, proto := range protos {
			// Recovery axis: multipath transports additionally run with
			// re-dialing armed and — for MMPTCP — the phase switch
			// deferring while the staggered convergence window is open,
			// so the table contrasts riding out the transient against
			// actively escaping it.
			recoveries := []bool{false}
			if proto != mmptcp.ProtoTCP {
				recoveries = append(recoveries, true)
			}
			for _, recovery := range recoveries {
				cfg := faultedConfig(proto, cables, failAt, repairAt, reconv)
				cfg.Routing = mmptcp.RoutingConfig{
					Mode:        mmptcp.RoutingGlobal,
					Convergence: mmptcp.ConvergeStaggered,
					PerHopDelay: perHop,
				}
				if recovery {
					armRecovery(&cfg)
				}
				points = append(points, point{perHop, proto, recovery})
				configs = append(configs, cfg)
			}
		}
	}
	results := sweep(configs)
	fmt.Fprintln(w, "== Roadmap: staged convergence transients (2 agg-core cables cut at 200ms, repaired at 900ms, staggered flips) ==")
	fmt.Fprintln(w, "perhop_ms  proto    recov  mean_ms  p99_ms   miss_pct  loop_drops  tn_noroute  stale_lookups  window_ms  flips  redials  defers")
	for i, res := range results {
		p := points[i]
		recov := "off"
		if p.recovery {
			recov = "on"
		}
		s := res.ShortSummary
		fmt.Fprintf(w, "%9.1f  %-7s  %-5s  %7.1f  %7.1f  %8.1f  %10d  %10d  %13d  %9.1f  %5d  %7d  %6d\n",
			p.perHop.Milliseconds(), p.proto, recov, s.MeanMs, s.P99Ms,
			res.DeadlineMissRate*100, res.LoopDrops, res.Routing.TransientNoRoute,
			res.Routing.StaleLookups, res.Routing.TransientTime.Milliseconds(),
			res.Routing.Flips, res.Redials, res.PhaseDeferrals)
	}
	fmt.Fprintln(w)
}

// timeline demonstrates the rolling Results snapshots: one MMPTCP run
// under a mid-run cable cut with global repair and periodic snapshots,
// printed as the percentile trajectory the paper's steady-state plots
// would be cut from. The cumulative drop and recompute columns localise
// the damage to the outage window.
func timeline(w io.Writer) {
	cfg := faultedConfig(mmptcp.ProtoMMPTCP, 2, 200*sim.Millisecond, 900*sim.Millisecond, 10*sim.Millisecond)
	cfg.Routing.Mode = mmptcp.RoutingGlobal
	cfg.Metrics.SnapshotInterval = 100 * sim.Millisecond
	res := run(cfg)
	if *csvFlag {
		fmt.Fprintln(w, "# Roadmap: rolling snapshot timeline (MMPTCP, 2 agg-core cables cut at 200ms)")
		fmt.Fprintln(w, "t_ms,spawned,done,p50_ms,p95_ms,p99_ms,blackholed,noroute,recomputes")
		for _, sn := range res.Snapshots {
			fmt.Fprintf(w, "%.0f,%d,%d,%.3f,%.3f,%.3f,%d,%d,%d\n",
				sn.At.Milliseconds(), sn.Spawned, sn.Short.Count,
				sn.Short.P50Ms, sn.Short.P95Ms, sn.Short.P99Ms,
				sn.Blackholed, sn.NoRouteDrops, sn.Recomputes)
		}
		return
	}
	fmt.Fprintln(w, "== Roadmap: rolling snapshot timeline (MMPTCP, 2 agg-core cables cut at 200ms, repaired at 900ms) ==")
	fmt.Fprintln(w, "    t_ms  spawned   done  p50_ms  p95_ms  p99_ms  blackholed  noroute  recomputes")
	for _, sn := range res.Snapshots {
		fmt.Fprintf(w, "%8.0f  %7d  %5d  %6.1f  %6.1f  %6.1f  %10d  %7d  %10d\n",
			sn.At.Milliseconds(), sn.Spawned, sn.Short.Count,
			sn.Short.P50Ms, sn.Short.P95Ms, sn.Short.P99Ms,
			sn.Blackholed, sn.NoRouteDrops, sn.Recomputes)
	}
	fmt.Fprintf(w, "final: %v\n\n", res.ShortSummary)
}

// anatomy is the flow-anatomy figure the structured trace opens: one
// MMPTCP run under a mid-run cable cut with global repair, traced in
// full mode, then the single most-damaged short flow dissected as an
// interleaved timeline of its own transport events (retransmissions,
// timeouts, subflow lifecycle, the phase switch) against the fabric and
// control-plane events that damaged it (faults, link state, drops
// charged to the flow, recomputes, FIB flips). High-volume per-segment
// kinds (sends, ACKs, enqueues, window moves) are elided — the figure
// is the anatomy of the damage, not a packet dump.
func anatomy(w io.Writer) {
	cfg := faultedConfig(mmptcp.ProtoMMPTCP, 2, 200*sim.Millisecond, 900*sim.Millisecond, 10*sim.Millisecond)
	cfg.Routing.Mode = mmptcp.RoutingGlobal
	cfg.Trace.Mode = mmptcp.TraceFull
	res, rec, err := mmptcp.RunTraced(cfg)
	check(err)

	// The victim: the short flow with the most timeouts, retransmissions
	// breaking ties — the tail the paper's Figure 1 scatters are about.
	victim := -1
	for i, r := range res.ShortFlows {
		if victim < 0 ||
			r.Timeouts > res.ShortFlows[victim].Timeouts ||
			(r.Timeouts == res.ShortFlows[victim].Timeouts &&
				r.Retransmissions > res.ShortFlows[victim].Retransmissions) {
			victim = i
		}
	}
	if victim < 0 {
		fmt.Fprintln(w, "== anatomy: no short flows recorded ==")
		return
	}
	v := res.ShortFlows[victim]

	fmt.Fprintf(w, "== Anatomy of a damaged flow (full trace, %d events kept of %d) ==\n",
		rec.Len(), rec.Total())
	fmt.Fprintf(w, "victim: flow %d  %d -> %d  %d bytes  fct=%.1fms  timeouts=%d fast_retx=%d retx=%d completed=%t\n",
		v.ID, v.Src, v.Dst, v.Size, v.FCT().Milliseconds(),
		v.Timeouts, v.FastRetransmits, v.Retransmissions, v.Completed)
	fmt.Fprintln(w, "      t_ms  event            sub  node->peer  a           b")

	// Per-segment noise stays out of the timeline.
	elide := map[trace.Kind]bool{
		trace.KindEnqueue:     true,
		trace.KindAck:         true,
		trace.KindSegmentSend: true,
		trace.KindCwnd:        true,
		trace.KindRTO:         true,
		trace.KindECNMark:     true,
	}
	printed := 0
	for _, e := range rec.Events() {
		if e.Flow != v.ID && e.Flow != 0 {
			continue // another flow's transport/fabric event
		}
		if elide[e.Kind] {
			continue
		}
		peer := "    -"
		if e.Peer >= 0 {
			peer = fmt.Sprintf("%5d", e.Peer)
		}
		fmt.Fprintf(w, "%10.3f  %-15s  %3d  %4d->%s  %-10d  %d\n",
			e.At.Milliseconds(), e.Kind, e.Sub, e.Node, peer, e.A, e.B)
		printed++
	}
	fmt.Fprintf(w, "%d timeline events (of %d traced; per-segment kinds elided)\n\n",
		printed, rec.Len())
}

// coexist shares one dumbbell bottleneck among a TCP flow, an MPTCP
// connection and an MMPTCP connection (§3: "In-depth investigation of
// how MMPTCP shares network resources with TCP and MPTCP").
func coexist(w io.Writer) {
	fmt.Fprintln(w, "== §3: co-existence on a shared 100 Mb/s bottleneck ==")
	eng := sim.NewEngine()
	// 1 Gb/s access links feed the 100 Mb/s bottleneck. Every port, the
	// bottleneck's included, buffers 100 packets, not the paper's 30,
	// which leave TCP 4.2 % of the bottleneck instead of 15.8 %.
	link := topology.DefaultLinkConfig()
	link.RateBps = 1_000_000_000
	link.QueueLimit = 100
	d := topology.NewDumbbell(eng, topology.DumbbellConfig{
		HostsPerSide:  3,
		Link:          link,
		BottleneckBps: 100_000_000,
	})
	rng := sim.NewRNG(*seedFlag)
	protos := []mmptcp.Protocol{mmptcp.ProtoTCP, mmptcp.ProtoMPTCP, mmptcp.ProtoMMPTCP}
	conns := make([]mmptcp.Conn, len(protos))
	for i, proto := range protos {
		cfg := mmptcp.Config{Protocol: proto, Subflows: 8}
		conn, err := mmptcp.Dial(&d.Network, cfg, mmptcp.DialConfig{
			FlowID: uint64(i + 1), Src: i, Dst: d.Cfg.HostsPerSide + i, Size: -1, RNG: rng.Split(),
		})
		check(err)
		conns[i] = conn
		conn.Start()
	}
	const horizon = 10 * sim.Second
	eng.RunUntil(horizon)
	fmt.Fprintln(w, "proto    goodput_mbps  share")
	var total float64
	goodputs := make([]float64, len(conns))
	for i, c := range conns {
		goodputs[i] = float64(c.Receiver().Delivered()) * 8 / horizon.Seconds() / 1e6
		total += goodputs[i]
	}
	for i, proto := range protos {
		fmt.Fprintf(w, "%-7s  %12.2f  %5.1f%%\n", proto, goodputs[i], goodputs[i]/total*100)
	}
	fmt.Fprintf(w, "bottleneck utilisation: %.1f%%\n\n",
		d.BottleneckLR.Stats.Utilisation(horizon)*100)
}
