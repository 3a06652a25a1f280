// Command bench runs the repository's tracked performance suite and
// writes BENCH.json, the machine-readable perf trajectory (ns/op,
// allocs/op, events/sec, routing recompute counters). CI runs it with
// -quick on every push and archives the artifact; full-scale numbers are
// regenerated with the defaults when perf-relevant code changes. The
// format is documented in the README's Performance section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	mmptcp "repro"
	"repro/internal/netem"
	"repro/internal/prof"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Result is one benchmark's measurements as serialised into BENCH.json.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH.json envelope.
type File struct {
	Schema    int      `json:"schema"`
	Generated string   `json:"generated"`
	Go        string   `json:"go"`
	Quick     bool     `json:"quick"`
	Results   []Result `json:"benchmarks"`
}

func main() {
	quick := flag.Bool("quick", false, "reduced scale for CI smoke runs (64-host churn topology, fewer flows)")
	out := flag.String("out", "BENCH.json", "output path for the JSON report")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	var results []Result
	add := func(name string, br testing.BenchmarkResult, metrics map[string]float64) {
		r := Result{
			Name:        name,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Metrics:     metrics,
		}
		results = append(results, r)
		fmt.Printf("%-28s %12.0f ns/op %12d allocs/op %12d B/op", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		keys := make([]string, 0, len(metrics))
		for k := range metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%.4g", k, metrics[k])
		}
		fmt.Println()
	}

	engineThroughput(*quick, add)
	churnRecompute(*quick, add)
	staggeredChurn(*quick, add)
	redialChurn(*quick, add)
	sweepScale(*quick, add)
	shardThroughput(*quick, add)
	shardScale(*quick, add)
	microBenches(add)

	stopProf()
	if err := prof.WriteHeap(*memProf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	f := File{
		Schema:    1,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		Quick:     *quick,
		Results:   results,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(results))
}

type addFunc func(name string, br testing.BenchmarkResult, metrics map[string]float64)

// engineThroughput is BenchmarkEngineThroughput's workload (shared via
// mmptcp.EngineBenchConfig), reported with events/sec so simulator
// speed is tracked independently of workload size.
func engineThroughput(quick bool, add addFunc) {
	var events uint64
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := mmptcp.Run(mmptcp.EngineBenchConfig(quick))
			if err != nil {
				b.Fatal(err)
			}
			events = res.Events
		}
	})
	nsPerOp := float64(br.T.Nanoseconds()) / float64(br.N)
	add("engine-throughput", br, map[string]float64{
		"events":         float64(events),
		"events_per_sec": float64(events) / (nsPerOp / 1e9),
	})
}

// churnRecompute measures the fault-heavy hot path three ways: local
// repair (no control plane), incremental global repair, and global
// repair with ForceFullRecompute — the pre-incremental behaviour — so
// the BFS and reconciliation savings are printed as a directly measured
// ratio rather than an estimate. The scenario itself is
// mmptcp.ChurnBenchConfig, shared with BenchmarkXChurnRecompute so the
// tracked JSON and the in-repo benchmark measure the same workload.
func churnRecompute(quick bool, add addFunc) {
	variants := []struct {
		name string
		mode mmptcp.RoutingMode
		full bool
	}{
		{"churn-recompute/local", mmptcp.RoutingLocal, false},
		{"churn-recompute/global", mmptcp.RoutingGlobal, false},
		{"churn-recompute/global-full", mmptcp.RoutingGlobal, true},
	}
	stats := make(map[string]mmptcp.RoutingStats)
	for _, v := range variants {
		var last *mmptcp.Results
		routing.ForceFullRecompute = v.full
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mmptcp.Run(mmptcp.ChurnBenchConfig(v.mode, quick))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
		})
		routing.ForceFullRecompute = false
		stats[v.name] = last.Routing
		m := map[string]float64{
			"fault_events":   float64(last.FaultEvents),
			"recomputes":     float64(last.Routing.Recomputes),
			"dst_recomputed": float64(last.Routing.DstRecomputed),
			"dst_skipped":    float64(last.Routing.DstSkipped),
			"bfs_runs":       float64(last.Routing.BFSRuns),
			"noroute":        float64(last.NoRouteDrops),
		}
		if v.name == "churn-recompute/global-full" {
			inc := stats["churn-recompute/global"]
			if inc.BFSRuns > 0 {
				m["bfs_ratio_vs_incremental"] = float64(last.Routing.BFSRuns) / float64(inc.BFSRuns)
			}
			if inc.DstRecomputed > 0 {
				m["dst_ratio_vs_incremental"] = float64(last.Routing.DstRecomputed) / float64(inc.DstRecomputed)
			}
		}
		add(v.name, br, m)
	}
}

// staggeredChurn is the same churn workload under staggered per-switch
// convergence (mmptcp.StaggeredChurnBenchConfig: 2ms of flip delay per
// hop), so the cost of the per-switch scheduling machinery — staged
// table forks, flip events, window accounting — is tracked directly
// against churn-recompute/global, and the transient-window counters
// land in BENCH.json next to it.
func staggeredChurn(quick bool, add addFunc) {
	var last *mmptcp.Results
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := mmptcp.Run(mmptcp.StaggeredChurnBenchConfig(quick))
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
	})
	add("churn-recompute/staggered", br, map[string]float64{
		"fault_events":   float64(last.FaultEvents),
		"recomputes":     float64(last.Routing.Recomputes),
		"flips":          float64(last.Routing.Flips),
		"transient_ms":   last.Routing.TransientTime.Milliseconds(),
		"loop_drops":     float64(last.LoopDrops),
		"tn_noroute":     float64(last.Routing.TransientNoRoute),
		"stale_lookups":  float64(last.Routing.StaleLookups),
		"dst_recomputed": float64(last.Routing.DstRecomputed),
		"dst_skipped":    float64(last.Routing.DstSkipped),
	})
}

// redialChurn measures transport recovery (subflow re-dialing) on a
// mid-run outage that strands pinned subflows
// (mmptcp.RedialChurnBenchConfig), against the identical scenario with
// the machinery disarmed. The off row is the no-regression baseline CI
// guards against the tracked BENCH.json: recovery-off throughput must
// be unchanged by the recovery code's presence, and the off row must
// never re-dial.
func redialChurn(quick bool, add addFunc) {
	variants := []struct {
		name     string
		recovery bool
	}{
		{"recovery/redial-churn-off", false},
		{"recovery/redial-churn", true},
	}
	for _, v := range variants {
		var last *mmptcp.Results
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mmptcp.Run(mmptcp.RedialChurnBenchConfig(v.recovery, quick))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
		})
		nsPerOp := float64(br.T.Nanoseconds()) / float64(br.N)
		add(v.name, br, map[string]float64{
			"events":           float64(last.Events),
			"events_per_sec":   float64(last.Events) / (nsPerOp / 1e9),
			"redials":          float64(last.Redials),
			"redial_recovered": float64(last.RedialRecovered),
			"long_tput_mbps":   last.LongThroughputMbps,
		})
	}
}

// sweepScale tracks the memory discipline of replicate sweeps
// (mmptcp.SweepScaleBenchConfig — one Shape, many seeds):
//
//   - setup-unpooled / setup-pooled: per-replicate setup cost as a fresh
//     engine+network build vs a pooled instance reset. setup-pooled's
//     setup_allocs_ratio (unpooled allocs / pooled allocs, with a floor
//     of 1 alloc in the denominator since the reset path allocates
//     nothing in steady state) is the pooling win CI guards at >= 10x.
//   - run-exact / run-streaming: one full run in each metrics mode, with
//     per_flow_bytes = allocated bytes / short flows, tracking the
//     per-flow memory the streaming mode exists to shed.
//   - sweep: the end-to-end replicate sweep through mmptcp.RunSweep,
//     which recycles one instance per worker.
func sweepScale(quick bool, add addFunc) {
	cfg := mmptcp.SweepScaleBenchConfig(quick)

	brBuild := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mmptcp.NewRunInstance(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("sweep-scale/setup-unpooled", brBuild, nil)

	inst, err := mmptcp.NewRunInstance(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	brReset := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		rcfg := cfg
		for i := 0; i < b.N; i++ {
			rcfg.Seed = uint64(i + 1) // exercise the per-seed ECMP rekeying
			if err := inst.Reset(rcfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	pooledAllocs := brReset.AllocsPerOp()
	denom := pooledAllocs
	if denom < 1 {
		denom = 1
	}
	add("sweep-scale/setup-pooled", brReset, map[string]float64{
		"setup_allocs_ratio": float64(brBuild.AllocsPerOp()) / float64(denom),
	})

	flows := float64(cfg.ShortFlows)
	brExact := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mmptcp.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("sweep-scale/run-exact", brExact, map[string]float64{
		"per_flow_bytes": float64(brExact.AllocedBytesPerOp()) / flows,
	})
	streamCfg := cfg
	streamCfg.Metrics.Mode = mmptcp.MetricsStreaming
	brStream := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mmptcp.Run(streamCfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("sweep-scale/run-streaming", brStream, map[string]float64{
		"per_flow_bytes": float64(brStream.AllocedBytesPerOp()) / flows,
	})

	reps := 8
	if quick {
		reps = 4
	}
	configs := make([]mmptcp.Config, reps)
	for i := range configs {
		configs[i] = cfg
		configs[i].Seed = uint64(i + 1)
	}
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mmptcp.RunSweep(configs, mmptcp.SweepOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("sweep-scale/sweep", br, map[string]float64{"replicates": float64(reps)})
}

// runShardBench benchmarks one config through mmptcp.Run and returns
// the measurement plus the shard-row metrics every variant carries:
// event count, events/sec, and the core count the run had available —
// the context a speedup ratio is meaningless without.
func runShardBench(cfg mmptcp.Config) (testing.BenchmarkResult, map[string]float64) {
	var last *mmptcp.Results
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := mmptcp.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
	})
	nsPerOp := float64(br.T.Nanoseconds()) / float64(br.N)
	m := map[string]float64{
		"events":         float64(last.Events),
		"events_per_sec": float64(last.Events) / (nsPerOp / 1e9),
		"cores":          float64(runtime.GOMAXPROCS(0)),
	}
	if last.FaultEvents > 0 {
		m["fault_events"] = float64(last.FaultEvents)
	}
	if s := last.Shard; s.Shards > 1 {
		// Synchronization counters, deterministic per (seed, shards,
		// mode): the adaptive-vs-conservative barrier ratio the CI guard
		// checks is computed across rows from these.
		m["barriers"] = float64(s.Barriers)
		m["elided_wakeups"] = float64(s.ElidedWakeups)
		m["mean_window_ns"] = s.MeanWindowNs
		m["widened_windows"] = float64(s.WidenedWindows)
	}
	return br, m
}

// shardThroughput runs the engine-throughput workload sequentially and
// with 2 and 4 shards (mmptcp.ShardThroughputBenchConfig — the identical
// scenario each time), so the shard rows' speedup_vs_seq is a directly
// measured like-for-like ratio. Each row carries the cores metric: on a
// single-core runner the honest expectation is speedup ~1 or below
// (barrier overhead, nothing to parallelise across), which is why the
// CI speedup guard is core-gated. It then runs the quiet-boundary
// variant in both lookahead modes — the shard-quiet/* and
// shard-adaptive/* rows.
func shardThroughput(quick bool, add addFunc) {
	variants := []struct {
		name   string
		shards int
	}{
		{"shard-throughput/seq", 0},
		{"shard-throughput/2", 2},
		{"shard-throughput/4", 4},
	}
	var seqNs float64
	for _, v := range variants {
		br, m := runShardBench(mmptcp.ShardThroughputBenchConfig(v.shards, quick))
		nsPerOp := float64(br.T.Nanoseconds()) / float64(br.N)
		if v.shards == 0 {
			seqNs = nsPerOp
		} else {
			m["shards"] = float64(v.shards)
			// A speedup ratio measured on fewer cores than shards is
			// noise (the shards time-slice one core and the barrier
			// overhead reads as a slowdown), so it is only emitted when
			// the run actually had the parallelism it claims to measure.
			if int(m["cores"]) >= v.shards {
				m["speedup_vs_seq"] = seqNs / nsPerOp
			}
		}
		add(v.name, br, m)
	}

	// The quiet-boundary variant (mmptcp.ShardQuietBenchConfig:
	// rack-local shorts, sparse arrivals, no long-flow background) is
	// the workload adaptive lookahead exists for: shard boundaries sit
	// idle between bursts, so EOT promises can stride across the gaps.
	// shard-quiet/{seq,2,4} are the conservative rows; shard-adaptive/
	// {2,4} run the same configs with adaptive lookahead. barrier_ratio
	// (conservative barriers / adaptive barriers, same config) is a
	// virtual-time fact — deterministic per (seed, shards) on any box —
	// and is what the bench-smoke CI guard holds the >= 2x floor on.
	// speedup_vs_conservative compares wall time at equal parallelism,
	// so it is meaningful on any core count; speedup_vs_seq stays
	// core-gated like every other shard row.
	var quietSeqNs float64
	quietNs := map[int]float64{}
	quietBarriers := map[int]float64{}
	for _, shards := range []int{0, 2, 4} {
		cfg := mmptcp.ShardQuietBenchConfig(shards, quick)
		br, m := runShardBench(cfg)
		nsPerOp := float64(br.T.Nanoseconds()) / float64(br.N)
		name := "shard-quiet/seq"
		if shards == 0 {
			quietSeqNs = nsPerOp
		} else {
			name = fmt.Sprintf("shard-quiet/%d", shards)
			m["shards"] = float64(shards)
			quietNs[shards] = nsPerOp
			quietBarriers[shards] = m["barriers"]
			if int(m["cores"]) >= shards {
				m["speedup_vs_seq"] = quietSeqNs / nsPerOp
			}
		}
		add(name, br, m)
	}
	for _, shards := range []int{2, 4} {
		cfg := mmptcp.ShardQuietBenchConfig(shards, quick)
		cfg.Lookahead = mmptcp.LookaheadAdaptive
		br, m := runShardBench(cfg)
		nsPerOp := float64(br.T.Nanoseconds()) / float64(br.N)
		m["shards"] = float64(shards)
		m["speedup_vs_conservative"] = quietNs[shards] / nsPerOp
		if b := m["barriers"]; b > 0 {
			m["barrier_ratio"] = quietBarriers[shards] / b
		}
		if int(m["cores"]) >= shards {
			m["speedup_vs_seq"] = quietSeqNs / nsPerOp
		}
		add(fmt.Sprintf("shard-adaptive/%d", shards), br, m)
	}
}

// shardScale is the ROADMAP acceptance row: the K=16 churn scenario
// (mmptcp.ShardScaleBenchConfig) sequential vs 4-shard, with the
// measured speedup on the sharded row. The k16-seq row doubles as the
// sequential K=16 trajectory — the wall time the parallel engine is
// chartered to beat.
func shardScale(quick bool, add addFunc) {
	brSeq, mSeq := runShardBench(mmptcp.ShardScaleBenchConfig(0, quick))
	add("shard-scale/k16-seq", brSeq, mSeq)
	seqNs := float64(brSeq.T.Nanoseconds()) / float64(brSeq.N)

	brSh, mSh := runShardBench(mmptcp.ShardScaleBenchConfig(4, quick))
	consNs := float64(brSh.T.Nanoseconds()) / float64(brSh.N)
	consBarriers := mSh["barriers"]
	mSh["shards"] = 4
	if int(mSh["cores"]) >= 4 {
		mSh["speedup_vs_seq"] = seqNs / consNs
	}
	add("shard-scale/k16-churn", brSh, mSh)

	cfgA := mmptcp.ShardScaleBenchConfig(4, quick)
	cfgA.Lookahead = mmptcp.LookaheadAdaptive
	brA, mA := runShardBench(cfgA)
	nsA := float64(brA.T.Nanoseconds()) / float64(brA.N)
	mA["shards"] = 4
	mA["speedup_vs_conservative"] = consNs / nsA
	if b := mA["barriers"]; b > 0 {
		mA["barrier_ratio"] = consBarriers / b
	}
	if int(mA["cores"]) >= 4 {
		mA["speedup_vs_seq"] = seqNs / nsA
	}
	add("shard-adaptive/k16-churn", brA, mA)
}

// microBenches are the two allocation-free hot paths the regression
// tests assert, measured so their cost is tracked too: one full packet
// journey across the FatTree, and one retransmit-timer re-arm.
func microBenches(add addFunc) {
	{
		eng := sim.NewEngine()
		ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
		src, dst := ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1]
		var sport uint16 = 1024
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := src.NewPacket()
				p.Src, p.Dst = src.ID(), dst.ID()
				p.SrcPort, p.DstPort = sport, 80
				p.Size, p.PayloadLen = 1500, 1460
				p.FlowID = 1
				p.Flags = netem.FlagData
				sport++
				src.Send(p)
				eng.Run()
			}
		})
		add("forward-journey", br, nil)
	}
	{
		eng := sim.NewEngine()
		tm := sim.NewTimer(eng, func() {})
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tm.Reset(sim.Millisecond)
			}
		})
		add("timer-rearm", br, nil)
	}
}
