// Command mmptcpsim runs one experiment of the MMPTCP simulation study
// with every knob exposed as a flag, and prints a full report: short-flow
// completion statistics, long-flow throughput, per-layer loss and
// utilisation, and — under failures — blackhole/no-route accounting and
// the routing control plane's recompute work (-routing local|global,
// -fail-cables, -fail-switches). With -perflow it also emits per-flow
// CSV for plotting.
//
// Example (the paper's headline comparison at small scale):
//
//	mmptcpsim -proto mptcp  -flows 1000
//	mmptcpsim -proto mmptcp -flows 1000
//
// With -seeds N > 1 the same experiment is replicated N times under
// seeds derived from -seed (one independent RNG stream per replicate),
// fanned across CPUs by mmptcp.RunSweep, and summarised with
// across-replicate mean and standard deviation — the cheap way to put
// error bars on any single configuration.
//
//	mmptcpsim -proto mmptcp -flows 1000 -seeds 8
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	mmptcp "repro"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/prof"
	"repro/internal/sim"
)

// writeTrace exports the recorder to path: JSON lines when the path
// ends in .jsonl, Chrome trace-event JSON (Perfetto loadable) otherwise.
func writeTrace(rec *mmptcp.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = rec.WriteJSONL(f)
	} else {
		err = rec.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// usageError reports a misuse of the flags themselves and exits 2; what
// a flag's value may be is Config's to judge (Run returns that error).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// check exits 1 on a failed run or export.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	var (
		proto    = flag.String("proto", "mmptcp", "transport: tcp, dctcp, mptcp, mmptcp")
		topo     = flag.String("topo", "fattree", "topology: fattree, multihomed, dumbbell")
		k        = flag.Int("k", 4, "FatTree arity")
		hpe      = flag.Int("hosts-per-edge", 8, "hosts per edge switch (oversubscription = 2*hpe/k)")
		subflows = flag.Int("subflows", 8, "MPTCP/MMPTCP subflows")
		strategy = flag.String("switch-strategy", "data-volume", "MMPTCP switching: data-volume, congestion-event")
		psThresh = flag.String("ps-threshold", "topology", "MMPTCP PS dup-ACK policy: topology, adaptive, standard")
		switchKB = flag.Int64("switch-kb", 100, "MMPTCP data-volume threshold, KB")
		flows    = flag.Int("flows", 1000, "number of short flows")
		flowKB   = flag.Int64("flow-kb", 70, "short-flow size, KB")
		rate     = flag.Float64("arrival-rate", 2.5, "short flows per second per sender")
		longFrac = flag.Float64("long-fraction", 1.0/3, "fraction of hosts running long flows (negative: none)")
		hotFrac  = flag.Float64("hotspot-fraction", 0, "fraction of short senders redirected to host 0")
		failN    = flag.Int("fail-cables", 0, "fail both directions of this many cables (0 = healthy network)")
		failLay  = flag.String("fail-layer", "agg", "layer of the failed cables: host, edge, agg, core")
		failAtMs = flag.Float64("fail-at-ms", 200, "failure time, milliseconds")
		repairMs = flag.Float64("repair-at-ms", 0, "repair time, milliseconds (0 = never repaired)")
		reconvMs = flag.Float64("reconverge-ms", 10, "routing reconvergence delay, milliseconds")
		failSw   = flag.String("fail-switches", "", "comma-separated switch ordinals to crash at -fail-at-ms (restart at -repair-at-ms)")
		routing  = flag.String("routing", "local", "repair model under failures: local (per-switch link exclusion) or global (control-plane reconvergence)")
		converge = flag.String("convergence", "atomic", "how recomputed tables reach the switches under -routing global: atomic (one flip) or staggered (per-switch FIB flips)")
		perhopMs = flag.Float64("perhop-ms", 0, "staggered convergence: extra flip delay per hop from the failure, milliseconds")
		deadRTOs = flag.Int("dead-rtos", 0, "declare a subflow dead after this many consecutive RTOs and re-dial it on a fresh source port (0 = recovery off)")
		redialBg = flag.Int("redial-budget", 0, "re-dial attempts allowed per connection (0 = default 4 when -dead-rtos is set)")
		deferPS  = flag.Bool("defer-phase-switch", false, "hold MMPTCP's phase switch while routing convergence is in progress (requires -routing global)")
		lossRate = flag.Float64("degrade-loss", 0, "degrade the -fail-cables cables with this random-loss probability instead of hard failure")
		capFact  = flag.Float64("degrade-capacity", 0, "scale the -fail-cables cables' capacity by this factor in (0,1] instead of hard failure")
		seed     = flag.Uint64("seed", 1, "random seed (with -seeds: base for derived replicate seeds)")
		seeds    = flag.Int("seeds", 1, "replicate the experiment under this many derived seeds")
		shards   = flag.Int("shards", 0, "partition the fabric across this many parallel event engines (0/1 = sequential; runs are deterministic for a fixed -seed and -shards)")
		workers  = flag.Int("workers", 0, "max concurrent replicates (0 = all CPUs); sharded replicates each occupy -shards worker slots")
		maxSimS  = flag.Float64("max-sim-seconds", 300, "virtual-time safety cap")
		perflow  = flag.Bool("perflow", false, "emit per-flow CSV to stdout")
		quiet    = flag.Bool("q", false, "suppress the report (useful with -perflow)")
		snapMs   = flag.Float64("snapshot-ms", 0, "record a cumulative snapshot every this many milliseconds of virtual time (0 = off)")
		traceM   = flag.String("trace", "", "record a structured event trace: ring (bounded flight recorder) or full (everything)")
		traceOut = flag.String("trace-out", "trace.json", "trace output path; a .jsonl suffix writes JSON lines, anything else Chrome trace-event JSON (open in Perfetto)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	cfg := mmptcp.Config{
		Topology:        mmptcp.TopologyKind(*topo),
		K:               *k,
		HostsPerEdge:    *hpe,
		Protocol:        mmptcp.Protocol(*proto),
		Subflows:        *subflows,
		SwitchBytes:     *switchKB * 1000,
		ShortFlowSize:   *flowKB * 1000,
		ShortFlows:      *flows,
		ArrivalRate:     *rate,
		LongFraction:    *longFrac,
		HotspotFraction: *hotFrac,
		Seed:            *seed,
		Shards:          *shards,
		MaxSimTime:      sim.FromSeconds(*maxSimS),
		Metrics: mmptcp.MetricsConfig{
			SnapshotInterval: sim.FromSeconds(*snapMs / 1000),
		},
	}
	var ok bool
	if cfg.Strategy, ok = map[string]core.Strategy{
		"data-volume": core.SwitchDataVolume, "congestion-event": core.SwitchCongestionEvent,
	}[*strategy]; !ok {
		usageError("unknown -switch-strategy %q", *strategy)
	}
	if cfg.PSThreshold, ok = map[string]core.ThresholdMode{
		"topology": core.ThresholdTopology, "adaptive": core.ThresholdAdaptive, "standard": core.ThresholdStandard,
	}[*psThresh]; !ok {
		usageError("unknown -ps-threshold %q", *psThresh)
	}
	if (*lossRate > 0 || *capFact > 0) && *failN == 0 {
		usageError("-degrade-loss/-degrade-capacity need -fail-cables to select how many cables to degrade")
	}
	// Config judges every value it is handed (Run returns the error); what
	// is checked here is what only the flags know. -repair-at-ms 0 means
	// "never", so a negative one would silently mean the same.
	if *repairMs < 0 {
		usageError("-repair-at-ms must not be negative (got %v); 0 = never repaired", *repairMs)
	}
	if *traceM != "" {
		if *seeds > 1 {
			usageError("-trace records a single run; drop -seeds or -trace")
		}
		cfg.Trace.Mode = mmptcp.TraceMode(*traceM)
	}
	cfg.Routing = mmptcp.RoutingConfig{
		Mode:        mmptcp.RoutingMode(*routing),
		Convergence: mmptcp.ConvergenceMode(*converge),
		PerHopDelay: sim.FromSeconds(*perhopMs / 1000),
	}
	cfg.Transport = mmptcp.TransportConfig{
		DeadRTOs:         *deadRTOs,
		RedialBudget:     *redialBg,
		DeferPhaseSwitch: *deferPS,
	}
	at, repair := sim.FromSeconds(*failAtMs/1000), sim.FromSeconds(*repairMs/1000)
	cfg.Faults.ReconvergeDelay = sim.FromSeconds(*reconvMs / 1000)
	if *failSw != "" {
		var ords []int
		for _, part := range strings.Split(*failSw, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				usageError("bad -fail-switches ordinal %q", part)
			}
			ords = append(ords, n)
		}
		cfg.Faults.Events = append(cfg.Faults.Events, mmptcp.FailSwitches(ords, at, repair)...)
	}
	if *failN > 0 {
		layer, ok := map[string]mmptcp.Layer{
			"host": mmptcp.LayerHost, "edge": mmptcp.LayerEdge, "agg": mmptcp.LayerAgg, "core": mmptcp.LayerCore,
		}[*failLay]
		if !ok {
			usageError("unknown -fail-layer %q", *failLay)
		}
		if *lossRate > 0 || *capFact > 0 {
			factor := *capFact
			if factor == 0 {
				factor = 1 // loss-only degradation keeps full capacity
			}
			cfg.Faults.Events = append(cfg.Faults.Events,
				mmptcp.DegradeCables(layer, *failN, at, repair, factor, *lossRate)...)
		} else {
			cfg.Faults.Events = append(cfg.Faults.Events,
				mmptcp.FailCables(layer, *failN, at, repair)...)
		}
	}

	stopProf, err := prof.Start(*cpuProf)
	check(err)

	if *seeds > 1 {
		if *perflow {
			usageError("-perflow is a single-run report; drop -seeds or -perflow")
		}
		replicate(cfg, *seeds, *workers, *seed)
		stopProf()
		check(prof.WriteHeap(*memProf))
		return
	}

	start := time.Now()
	var res *mmptcp.Results
	var rec *mmptcp.Recorder
	if *traceM != "" {
		res, rec, err = mmptcp.RunTraced(cfg)
	} else {
		res, err = mmptcp.Run(cfg)
	}
	check(err)
	wall := time.Since(start)
	stopProf()
	check(prof.WriteHeap(*memProf))

	if rec != nil {
		check(writeTrace(rec, *traceOut))
		if !*quiet {
			fmt.Fprintf(os.Stderr, "trace: kept %d of %d events -> %s\n",
				rec.Len(), rec.Total(), *traceOut)
		}
	}

	if !*quiet {
		report(res, wall)
	}
	if *perflow {
		fmt.Println("flow_index,src,dst,start_ms,fct_ms,timeouts,fast_retx,retx,completed")
		for i, r := range res.ShortFlows {
			fmt.Printf("%d,%d,%d,%.3f,%.3f,%d,%d,%d,%t\n",
				i, r.Src, r.Dst, r.Start.Milliseconds(), r.FCT().Milliseconds(),
				r.Timeouts, r.FastRetransmits, r.Retransmissions, r.Completed)
		}
	}
}

// replicate runs n copies of cfg under seeds derived from base via
// independent RNG streams, in parallel, and reports each replicate plus
// across-replicate aggregates.
func replicate(cfg mmptcp.Config, n, workers int, base uint64) {
	configs := make([]mmptcp.Config, n)
	for i := range configs {
		configs[i] = cfg
		// Same derivation RunSweep's SweepOptions.Seed uses, applied
		// unconditionally so base 0 still yields distinct replicates.
		configs[i].Seed = mmptcp.NewRNGStream(base, uint64(i)).Uint64()
	}
	opts := mmptcp.SweepOptions{Workers: workers}
	start := time.Now()
	results, err := mmptcp.RunSweep(configs, opts)
	check(err)
	wall := time.Since(start)

	fmt.Printf("protocol=%s topology=%s(k=%d,hosts/edge=%d) base-seed=%d replicates=%d\n",
		cfg.Protocol, cfg.Topology, cfg.K, cfg.HostsPerEdge, base, n)
	// Wall-clock time goes to stderr: stdout is the deterministic report.
	fmt.Fprintf(os.Stderr, "ran %d experiments in %v wall (workers=%d)\n",
		n, wall.Round(time.Millisecond), mmptcp.SweepWorkers(configs, opts))
	fmt.Println()
	fmt.Println("replicate        seed  mean_ms  std_ms  p99_ms  rto_flows  miss_pct  long_tput_mbps")
	var means, tputs []float64
	for i, res := range results {
		s := res.ShortSummary
		fmt.Printf("%9d  %10d  %7.1f  %6.1f  %6.1f  %9d  %8.1f  %14.2f\n",
			i, res.Config.Seed, s.MeanMs, s.StdMs, s.P99Ms, s.WithRTO,
			res.DeadlineMissRate*100, res.LongThroughputMbps)
		means = append(means, s.MeanMs)
		tputs = append(tputs, res.LongThroughputMbps)
	}
	mMean, mStd := meanStd(means)
	tMean, tStd := meanStd(tputs)
	fmt.Printf("\nacross replicates: mean FCT %.1f ms (σ=%.1f), long goodput %.2f Mb/s (σ=%.2f)\n",
		mMean, mStd, tMean, tStd)
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

func report(res *mmptcp.Results, wall time.Duration) {
	cfg := res.Config
	fmt.Printf("protocol=%s topology=%s(k=%d,hosts/edge=%d) seed=%d",
		cfg.Protocol, cfg.Topology, cfg.K, cfg.HostsPerEdge, cfg.Seed)
	if cfg.Shards > 1 {
		fmt.Printf(" shards=%d", cfg.Shards)
	}
	fmt.Println()
	// Wall-clock time goes to stderr: stdout is the deterministic report.
	fmt.Fprintf(os.Stderr, "simulated %v in %v wall (%d events, %.1fM events/s)\n",
		res.Elapsed, wall.Round(time.Millisecond), res.Events,
		float64(res.Events)/wall.Seconds()/1e6)
	if s := res.Shard; s.Shards > 1 {
		fmt.Printf("sync: %d barriers, %d windows, %d elided wakeups, mean window %.1fus\n",
			s.Barriers, s.Windows, s.ElidedWakeups, s.MeanWindowNs/1e3)
	}
	fmt.Printf("\nshort flows (%d spawned):\n  %v\n", res.Spawned, res.ShortSummary)
	fmt.Printf("  deadline (%v) miss rate: %.1f%%\n", mmptcp.ShortFlowDeadline, res.DeadlineMissRate*100)

	// FCT distribution sketch.
	var fcts []float64
	for _, r := range res.ShortFlows {
		if r.Completed {
			fcts = append(fcts, r.FCT().Milliseconds())
		}
	}
	sort.Float64s(fcts)
	if len(fcts) > 0 {
		fmt.Printf("  fct quartiles: %.1f / %.1f / %.1f ms\n",
			fcts[len(fcts)/4], fcts[len(fcts)/2], fcts[3*len(fcts)/4])
	}

	if len(res.Snapshots) > 0 {
		fmt.Println("\nsnapshots (cumulative):")
		fmt.Println("      t_ms  spawned  done  p50_ms  p99_ms  blackholed  noroute  recomputes")
		for _, sn := range res.Snapshots {
			fmt.Printf("  %8.0f  %7d  %5d  %6.1f  %6.1f  %10d  %7d  %10d\n",
				sn.At.Milliseconds(), sn.Spawned, sn.Short.Count, sn.Short.P50Ms,
				sn.Short.P99Ms, sn.Blackholed, sn.NoRouteDrops, sn.Recomputes)
		}
	}

	fmt.Printf("\nlong flows (%d):\n  mean goodput %.2f Mb/s\n", len(res.LongFlows), res.LongThroughputMbps)
	if cfg.Protocol == mmptcp.ProtoMMPTCP {
		fmt.Printf("  phase switches: %d\n", res.PhaseSwitches)
		if cfg.Transport.DeferPhaseSwitch {
			fmt.Printf("  switches deferred for convergence: %d\n", res.PhaseDeferrals)
		}
	}
	if cfg.Transport.DeadRTOs > 0 {
		fmt.Printf("\ntransport recovery: %d subflow re-dials, %d recovered a live path\n",
			res.Redials, res.RedialRecovered)
	}

	fmt.Println("\nper-layer (link direction classes):")
	for _, layer := range []netem.Layer{netem.LayerHost, netem.LayerEdge, netem.LayerAgg, netem.LayerCore} {
		ls, ok := res.Layers[layer]
		if !ok {
			continue
		}
		fmt.Printf("  %-4s  links=%-4d loss=%.5f util=%.3f max_queue=%d\n",
			layer, ls.Links, ls.LossRate, ls.Utilisation, ls.MaxQueue)
		if ls.Blackholed > 0 || ls.RandomDrops > 0 || ls.DownLinks > 0 {
			fmt.Printf("        failed: blackholed=%d (%d bytes) random_drops=%d down_links=%d time_in_failure=%v\n",
				ls.Blackholed, ls.BlackholedBytes, ls.RandomDrops, ls.DownLinks, ls.DownTime)
		}
	}
	if res.FaultEvents > 0 {
		fmt.Printf("\nfaults: %d scheduled events, %d packets blackholed, %d no-route drops\n",
			res.FaultEvents, res.Blackholed, res.NoRouteDrops)
		if res.SwitchCrashes > 0 {
			fmt.Printf("  switch crashes: %d (%d packets dropped at crashed forwarding planes)\n",
				res.SwitchCrashes, res.CrashDrops)
		}
		fmt.Printf("  routing: %s repair", res.Routing.Mode)
		if res.Routing.Recomputes > 0 {
			fmt.Printf(", %d recomputes, last convergence at %v, %d overrides live at run end",
				res.Routing.Recomputes, res.Routing.LastConvergence, res.Routing.Overrides)
		}
		fmt.Println()
		if res.Routing.Convergence == string(mmptcp.ConvergeStaggered) {
			fmt.Printf("  staggered convergence: %d per-switch flips, %v cumulative transient window\n",
				res.Routing.Flips, res.Routing.TransientTime)
			fmt.Printf("    window damage: %d loop drops, %d transient no-route, %d stale lookups\n",
				res.LoopDrops, res.Routing.TransientNoRoute, res.Routing.StaleLookups)
		}
	}
}
