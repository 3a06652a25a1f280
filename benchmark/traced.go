package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	mmptcp "repro"
)

// layerMetric is one per-layer metric of the contract in BENCHMARK.json.
// Per-layer metrics have no bound: they explain a movement of an
// end-to-end metric, they do not gate one.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func shareName(bucket string) string {
	if strings.Contains(bucket, ".") {
		return bucket + "_cpu_share"
	}
	return bucket + ".cpu_share"
}

// perLayer lists every metric a traced child prints, in print order.
var perLayer = func() []layerMetric {
	var out []layerMetric
	for _, b := range shareBuckets {
		out = append(out, layerMetric{shareName(b), "ratio", "lower"})
	}
	return append(out, []layerMetric{
		// Counts from Results: they repeat exactly for a given seed.
		{"sim.events", "count", "lower"},
		{"sim.events_per_sec", "1/s", "higher"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.allocs_per_event", "count", "lower"},
		{"routing.recomputes", "count", "lower"},
		{"routing.bfs_runs", "count", "lower"},
		{"routing.dst_recomputed", "count", "lower"},
		{"routing.dst_skipped", "count", "higher"},
		{"routing.skip_ratio", "ratio", "higher"},
		{"faults.events", "count", "lower"},
		{"netem.noroute_drops", "count", "lower"},
		{"netem.blackholed", "count", "lower"},
		{"tcp.rto_flow_share", "ratio", "lower"},
		{"shard.barriers", "count", "lower"},
		{"shard.windows", "count", "lower"},
		{"shard.elided_wakeups", "count", "higher"},
		{"shard.mean_window_ns", "ns", "higher"},
		{"shard.events_per_barrier", "count", "higher"},
		{"shard.event_inflation", "ratio", "lower"},
		{"shard.speedup_vs_seq", "ratio", "higher"},
		{"shard.fct_mean_err_vs_seq", "ratio", "lower"},
		{"shard.fct_p50_err_vs_seq", "ratio", "lower"},
		{"mmptcp.sim_fct_mean_ms", "ms", "lower"},
		{"mmptcp.sim_fct_p50_ms", "ms", "lower"},
		{"mmptcp.sim_fct_p95_ms", "ms", "lower"},
		{"mmptcp.sim_long_tput_mbps", "Mb/s", "higher"},
		{"mmptcp.sim_flows_completed", "count", "higher"},
		{"mmptcp.fingerprint_match", "count", "higher"},
		// Probes of exported functions, raw host time.
		{"sim.pushpop_ns", "ns", "lower"},
		{"sim.timer_rearm_ns", "ns", "lower"},
		{"netem.link_hop_ns", "ns", "lower"},
		{"netem.journey_ns", "ns", "lower"},
		{"netem.journey_allocs", "count", "lower"},
		{"topology.build_ms", "ms", "lower"},
		{"topology.build_allocs", "count", "lower"},
		{"topology.lookup_ns", "ns", "lower"},
		{"routing.lookup_ns", "ns", "lower"},
		{"routing.recompute_ms", "ms", "lower"},
		{"routing.recompute_allocs", "count", "lower"},
		{"tcp.segment_ns", "ns", "lower"},
		{"mptcp.segment_ns", "ns", "lower"},
		{"core.segment_ns", "ns", "lower"},
		{"shard.barrier_ns", "ns", "lower"},
		{"sweep.replicate_ms_p50", "ms", "lower"},
		{"sweep.replicate_ms_p99", "ms", "lower"},
		{"sweep.setup_share", "ratio", "lower"},
		{"trace.ring_overhead", "ratio", "lower"},
		// The cost of measuring, and the drift correction made visible.
		{"trace_overhead", "ratio", "lower"},
		{"host.raw_wall_s", "s", "lower"},
		{"host.ref_kernel_s", "s", "lower"},
	}...)
}()

//go:embed baseline.json
var baselineJSON []byte

// baseline is what the defining commit measured: the machine, and the
// Results fingerprint of every workload at the seeds it recorded.
type baselineFile struct {
	Machine      map[string]string            `json:"machine"`
	Fingerprints map[string]map[string]string `json:"fingerprints"` // workload → seed → fingerprint
}

// fingerprintMatch is 1 when fp is the defining commit's fingerprint for
// (workload, seed), 0 when it differs — a behaviour-changing change says
// why — and -1 when that seed was never recorded.
func fingerprintMatch(workload string, seed uint64, fp string) (float64, error) {
	var b baselineFile
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return 0, fmt.Errorf("baseline.json: %w", err)
	}
	want, ok := b.Fingerprints[workload][strconv.FormatUint(seed, 10)]
	switch {
	case !ok:
		return -1, nil
	case want == fp:
		return 1, nil
	}
	return 0, nil
}

// tracedResult is what a traced child measured.
type tracedResult struct {
	attempted, failed int
	reasons           []string
	fingerprint       string
	metrics           map[string]float64
}

func (t *tracedResult) absorb(o *outcome) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.reasons = append(t.reasons, o.reasons...)
}

func (t *tracedResult) fail(err error) {
	t.attempted++
	t.failed++
	t.reasons = append(t.reasons, err.Error())
}

// flowStats pools the short-flow records of every replicate.
func flowStats(results []*mmptcp.Results) (mean, p50, p95 float64, completed, withRTO int) {
	var fcts []float64
	for _, r := range results {
		for _, f := range r.ShortFlows {
			if !f.Completed {
				continue
			}
			fcts = append(fcts, f.FCT().Milliseconds())
			if f.Timeouts > 0 {
				withRTO++
			}
		}
	}
	if len(fcts) == 0 {
		return 0, 0, 0, 0, 0
	}
	var sum float64
	for _, v := range fcts {
		sum += v
	}
	return sum / float64(len(fcts)), percentile(fcts, 0.50), percentile(fcts, 0.95), len(fcts), withRTO
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got-want) / want
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureTraced is the traced child. It records a span around every call
// it makes, runs the workload untraced twice for reference, then under the
// benchmark's own CPU profile, then the comparisons the workload asks for
// (sequential twin, ring-mode re-run) and the micro-probes, and writes the
// spans and the profile under outdir.
func (w *workload) measureTraced(seed uint64, scale float64, outdir string) tracedResult {
	res := tracedResult{metrics: map[string]float64{}}
	m := res.metrics
	tr := newTracer(w.name)

	tr.do("child", func() {
		ref := newReference(scale)

		// one runs the workload once, untraced, between reference samples.
		var kernel []float64
		one := func(span string, ww *workload, mutate func(*mmptcp.Config)) (outcome, float64) {
			var o outcome
			before := ref.sample()
			tr.do(span, func() {
				tr.do("run", func() { o = ww.call(seed, scale, mutate, true) })
				tr.do("collect", func() { ww.collect(&o) })
			})
			after := ref.sample()
			if ww == w {
				kernel = append(kernel, before, after)
			}
			res.absorb(&o)
			return o, ref.correct(o.wallS, before, after)
		}

		// Untraced reference, twice.
		first, wall1 := one("untraced", w, nil)
		second, wall2 := one("untraced", w, nil)
		res.fingerprint = first.fingerprint
		if second.fingerprint != first.fingerprint {
			res.fail(fmt.Errorf("fingerprint %s differs from the first run's %s", second.fingerprint, first.fingerprint))
		}
		untraced := (wall1 + wall2) / 2
		m["host.raw_wall_s"] = (first.wallS + second.wallS) / 2
		m["host.ref_kernel_s"] = median(kernel)

		// Profiled repetitions: the calls alone, collected afterwards.
		const profiled = 3
		var outs []outcome
		var shares map[string]float64
		before := ref.sample()
		tr.do("profiled", func() {
			prof, err := startProfile(filepath.Join(outdir, w.name+".cpu.pprof"))
			if err != nil {
				res.fail(err)
				return
			}
			for i := 0; i < profiled; i++ {
				tr.do("run", func() { outs = append(outs, w.call(seed, scale, nil, false)) })
			}
			tr.do("pprof_traces", func() { shares, err = prof.stop() })
			if err != nil {
				res.fail(err)
			}
		})
		after := ref.sample()
		var tracedWall float64
		for i := range outs {
			tr.do("collect", func() { w.collect(&outs[i]) })
			res.absorb(&outs[i])
			tracedWall += ref.correct(outs[i].wallS, before, after) / float64(len(outs))
			if outs[i].fingerprint != first.fingerprint {
				res.fail(fmt.Errorf("profiled run's fingerprint %s differs from the untraced %s", outs[i].fingerprint, first.fingerprint))
			}
		}
		for _, b := range shareBuckets {
			m[shareName(b)] = shares[b]
		}
		m["trace_overhead"] = ratio(tracedWall, untraced) - 1

		// Counts from the first untraced run's Results.
		if first.results != nil {
			w.resultMetrics(m, &first, untraced)
			match, err := fingerprintMatch(w.name, seed, first.fingerprint)
			if err != nil {
				res.fail(err)
			}
			m["mmptcp.fingerprint_match"] = match
			w.replicateSpans(tr, m, &first)
		}

		// The sequential twin of a sharded workload, same seed.
		if twin := findWorkload(w.seqOf); twin != nil && first.results != nil {
			seq, seqWall := one("sequential_twin", twin, nil)
			if seq.results != nil {
				mean, p50, _, _, _ := flowStats(first.results)
				seqMean, seqP50, _, _, _ := flowStats(seq.results)
				m["shard.event_inflation"] = ratio(float64(first.events), float64(seq.events))
				m["shard.speedup_vs_seq"] = ratio(seqWall, untraced)
				// The sequential engine is the reference model; the
				// simulator has no hardware reference to be validated on.
				m["shard.fct_mean_err_vs_seq"] = relErr(mean, seqMean)
				m["shard.fct_p50_err_vs_seq"] = relErr(p50, seqP50)
			}
		}

		// The same workload with the flight recorder on.
		if w.ringOverhead {
			_, ringWall := one("ring_traced", w, func(cfg *mmptcp.Config) { cfg.Trace.Mode = mmptcp.TraceRing })
			m["trace.ring_overhead"] = ratio(ringWall, untraced) - 1
		}

		var setup []float64
		tr.do("setup_probe", func() {
			var err error
			if setup, err = w.setupSamples(ref, seed, scale, 5); err != nil {
				res.fail(err)
			}
		})
		if w.sweep != nil {
			m["sweep.setup_share"] = ratio(median(setup)*float64(first.attempted), untraced*float64(first.workers))
		}

		w.probes(tr, &res, seed, scale)
	})

	if err := tr.write(filepath.Join(outdir, w.name+".trace.json")); err != nil {
		res.fail(fmt.Errorf("write trace: %w", err))
	}
	return res
}

// resultMetrics fills in the counts the simulator reports about itself.
func (w *workload) resultMetrics(m map[string]float64, o *outcome, wallS float64) {
	var rt mmptcp.RoutingStats
	var faults, noRoute, blackholed int64
	var barriers, windows, elided uint64
	var windowNs, longTput float64
	for _, r := range o.results {
		rt.Recomputes += r.Routing.Recomputes
		rt.BFSRuns += r.Routing.BFSRuns
		rt.DstRecomputed += r.Routing.DstRecomputed
		rt.DstSkipped += r.Routing.DstSkipped
		faults += int64(r.FaultEvents)
		noRoute += r.NoRouteDrops
		blackholed += r.Blackholed
		barriers += r.Shard.Barriers
		windows += r.Shard.Windows
		elided += r.Shard.ElidedWakeups
		windowNs += r.Shard.MeanWindowNs * float64(r.Shard.Windows)
		longTput += r.LongThroughputMbps / float64(len(o.results))
	}
	events := float64(o.events)
	m["sim.events"] = events
	m["sim.events_per_sec"] = ratio(events, wallS)
	m["sim.ns_per_event"] = ratio(wallS*1e9, events)
	m["sim.allocs_per_event"] = ratio(float64(o.mallocs), events)
	m["routing.recomputes"] = float64(rt.Recomputes)
	m["routing.bfs_runs"] = float64(rt.BFSRuns)
	m["routing.dst_recomputed"] = float64(rt.DstRecomputed)
	m["routing.dst_skipped"] = float64(rt.DstSkipped)
	m["routing.skip_ratio"] = ratio(float64(rt.DstSkipped), float64(rt.DstSkipped+rt.DstRecomputed))
	m["faults.events"] = float64(faults)
	m["netem.noroute_drops"] = float64(noRoute)
	m["netem.blackholed"] = float64(blackholed)
	m["shard.barriers"] = float64(barriers)
	m["shard.windows"] = float64(windows)
	m["shard.elided_wakeups"] = float64(elided)
	m["shard.mean_window_ns"] = ratio(windowNs, float64(windows))
	m["shard.events_per_barrier"] = ratio(events, float64(barriers))

	mean, p50, p95, completed, withRTO := flowStats(o.results)
	m["mmptcp.sim_fct_mean_ms"] = mean
	m["mmptcp.sim_fct_p50_ms"] = p50
	m["mmptcp.sim_fct_p95_ms"] = p95
	m["mmptcp.sim_long_tput_mbps"] = longTput
	m["mmptcp.sim_flows_completed"] = float64(completed)
	m["tcp.rto_flow_share"] = ratio(float64(withRTO), float64(completed))
}

// replicateSpans turns a sweep's completion times into one span per
// replicate. RunSweep reports when a replicate finished, not when it
// began; with two running at a time, one is taken to have begun when the
// one two completions earlier finished, and the two alternate lanes.
func (w *workload) replicateSpans(tr *tracer, m map[string]float64, o *outcome) {
	if w.sweep == nil {
		return
	}
	var ms []float64
	for i, done := range o.doneAt {
		var began time.Duration
		if i >= o.workers {
			began = o.doneAt[i-o.workers]
		}
		ms = append(ms, float64((done-began).Nanoseconds())/1e6)
		tr.add("replicate", o.began.Add(began), o.began.Add(done), 1+i%o.workers)
	}
	m["sweep.replicate_ms_p50"] = percentile(ms, 0.50)
	m["sweep.replicate_ms_p99"] = percentile(ms, 0.99)
}

// probes runs every micro-probe inside its own span.
func (w *workload) probes(tr *tracer, res *tracedResult, seed uint64, scale float64) {
	m := res.metrics
	ft := w.fabricOf(seed, scale)
	ops := scaleCount(200_000, scale, 2_000)
	depth := scaleCount(w.heapDepth, scale, 100)

	tr.do("probe:sim", func() {
		m["sim.pushpop_ns"], m["sim.timer_rearm_ns"] = probeEngine(depth, ops)
	})
	tr.do("probe:netem.link", func() {
		ns, err := probeLinkHop(ops)
		if err != nil {
			res.fail(err)
		}
		m["netem.link_hop_ns"] = ns
	})
	tr.do("probe:netem.journey", func() {
		ns, allocs, err := probeJourney(ft, ops/4)
		if err != nil {
			res.fail(err)
		}
		m["netem.journey_ns"], m["netem.journey_allocs"] = ns, allocs
	})
	tr.do("probe:topology", func() {
		m["topology.build_ms"], m["topology.build_allocs"] = probeBuild(ft, 5)
	})
	tr.do("probe:routing", func() {
		rp, err := probeRouting(ft, w.recomputeLayer, ops, scaleCount(6, scale, 2))
		if err != nil {
			res.fail(err)
		}
		m["topology.lookup_ns"] = rp.healthyLookupNs
		m["routing.lookup_ns"] = rp.overriddenLookupNs
		m["routing.recompute_ms"] = rp.recomputeMs
		m["routing.recompute_allocs"] = rp.recomputeAllocs
	})
	for _, p := range []struct {
		metric string
		proto  mmptcp.Protocol
	}{{"tcp.segment_ns", mmptcp.ProtoTCP}, {"mptcp.segment_ns", mmptcp.ProtoMPTCP}, {"core.segment_ns", mmptcp.ProtoMMPTCP}} {
		tr.do("probe:"+p.metric, func() {
			ns, err := probeSegment(p.proto, int64(scaleCount(10_000_000, scale, 100_000)))
			if err != nil {
				res.fail(err)
			}
			m[p.metric] = ns
		})
	}
	tr.do("probe:shard.barrier", func() {
		ns, err := probeBarrier(scale)
		if err != nil {
			res.fail(err)
		}
		m["shard.barrier_ns"] = ns
	})
}
