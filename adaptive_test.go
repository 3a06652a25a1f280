package mmptcp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// adaptive returns the configs with Lookahead set to adaptive.
func adaptive(configs []Config) []Config {
	out := make([]Config, len(configs))
	copy(out, configs)
	for i := range out {
		out[i].Lookahead = LookaheadAdaptive
	}
	return out
}

// flowCore projects the Results fields that must be identical across
// lookahead modes: everything driven by flow completions and
// control-plane events. Cumulative data-plane counters (Results.Events,
// link/layer totals, drop counts, long-flow delivered bytes, sender-side
// retransmission stats filled after the run) legitimately include the
// post-Stop window overrun, whose width is mode-dependent — those are
// the documented N-shard divergence, widened by adaptive windows, and
// are excluded here exactly as they are excluded from the oracle
// comparison in TestShardedRunByteIdentical.
type flowCore struct {
	Spawned          int
	FaultEvents      int
	SwitchCrashes    int64
	Elapsed          SimTime
	ShortSummary     metrics.Summary
	DeadlineMissRate float64
	Snapshots        []metrics.Snapshot
	Shorts           []shortKey
	LongFlows        int
}

// shortKey is the per-short-flow completion record: identity, timing,
// outcome. Sender-side counters are omitted — a flow whose sender was
// still awaiting ACKs at the Stop barrier has them filled after the
// overrun.
type shortKey struct {
	ID        uint64
	Src, Dst  int32
	Size      int64
	Start     SimTime
	End       SimTime
	Completed bool
}

func coreOf(r *Results) flowCore {
	fc := flowCore{
		Spawned:          r.Spawned,
		FaultEvents:      r.FaultEvents,
		SwitchCrashes:    r.SwitchCrashes,
		Elapsed:          r.Elapsed,
		ShortSummary:     r.ShortSummary,
		DeadlineMissRate: r.DeadlineMissRate,
		Snapshots:        r.Snapshots,
		LongFlows:        len(r.LongFlows),
	}
	// WithRTO counts completed flows with sender-side timeouts — filled
	// post-overrun for senders the Stop caught mid-ACK; every other
	// Summary field derives from completion times alone.
	fc.ShortSummary.WithRTO = 0
	for _, sf := range r.ShortFlows {
		fc.Shorts = append(fc.Shorts, shortKey{
			ID: sf.ID, Src: int32(sf.Src), Dst: int32(sf.Dst), Size: sf.Size,
			Start: sf.Start, End: sf.End, Completed: sf.Completed,
		})
	}
	return fc
}

// TestAdaptiveMatchesConservative is the adaptive engine's correctness
// contract: over the PR-3 fault suite (FatTree and VL2, cable cuts with
// global repair, degraded cables, a core-switch crash, streaming and
// snapshot metrics), fresh and recycled, at 2 and 4 shards, the adaptive
// lookahead produces the same flow-level Results as the conservative
// engine — same spawns, same fault schedule, same completion times, same
// FCT distribution, same snapshots — while actually widening windows.
func TestAdaptiveMatchesConservative(t *testing.T) {
	for _, n := range []int{2, 4} {
		cons, err := RunSweep(shardedSuite(n), SweepOptions{Workers: 1})
		if err != nil {
			t.Fatalf("shards=%d conservative: %v", n, err)
		}
		adpt := sweptLikeFresh(t, fmt.Sprintf("shards=%d adaptive", n), adaptive(shardedSuite(n)), 4)
		widened := uint64(0)
		for i := range cons {
			if a, b := coreOf(cons[i]), coreOf(adpt[i]); !reflect.DeepEqual(a, b) {
				t.Errorf("config %d shards=%d: adaptive flow results diverged from conservative\nconservative: %+v\nadaptive:     %+v", i, n, a, b)
			}
			if got, want := adpt[i].Shard.Mode, string(LookaheadAdaptive); got != want {
				t.Errorf("config %d shards=%d: Shard.Mode = %q, want %q", i, n, got, want)
			}
			if got, want := cons[i].Shard.Mode, string(LookaheadConservative); got != want {
				t.Errorf("config %d shards=%d: Shard.Mode = %q, want %q", i, n, got, want)
			}
			if cons[i].Shard.WidenedWindows != 0 {
				t.Errorf("config %d shards=%d: conservative run reports %d widened windows",
					i, n, cons[i].Shard.WidenedWindows)
			}
			widened += adpt[i].Shard.WidenedWindows
		}
		if widened == 0 {
			t.Errorf("shards=%d: no window in the whole suite widened past the conservative bound — adaptive mode is inert", n)
		}
	}
}

// TestAdaptiveDeterminism pins the determinism contract for adaptive
// mode under every execution regime: Run on fresh instances, a serial
// sweep and 4-way parallel sweep workers (both recycling their
// instances) agree byte-for-byte — including the
// overrun-sensitive cumulative counters and the Shard block, which are
// deterministic per (Seed, Shards) even though they differ across modes.
// CI runs this under -race alongside the conservative suite.
func TestAdaptiveDeterminism(t *testing.T) {
	sweptLikeFresh(t, "adaptive", adaptive(shardedSuite(2)), 1, 4)
}

// TestAdaptiveFaultAtBarrier: a fault injection is control-plane work —
// its pending event caps every window edge, so a widened window can
// never jump a scheduled link failure, and the promise a shard published
// before the fault (computed from pre-fault heap state) is never relied
// on past it. The run must apply the full fault schedule at the same
// virtual times as the conservative engine while still widening windows
// in the quiet stretches around the fault.
func TestAdaptiveFaultAtBarrier(t *testing.T) {
	mk := func(mode LookaheadMode) Config {
		cfg := tiny(ProtoMMPTCP, 20)
		cfg.Shards = 2
		cfg.Lookahead = mode
		cfg.MaxSimTime = 2 * Second
		cfg.Faults = FaultsConfig{
			Events:          FailCables(LayerAgg, 2, 150*Millisecond, 600*Millisecond),
			ReconvergeDelay: 50 * Millisecond,
		}
		cfg.Routing.Mode = RoutingGlobal
		return cfg
	}
	cons, err := Run(mk(LookaheadConservative))
	if err != nil {
		t.Fatal(err)
	}
	adpt, err := Run(mk(LookaheadAdaptive))
	if err != nil {
		t.Fatal(err)
	}
	if adpt.FaultEvents != cons.FaultEvents {
		t.Errorf("adaptive resolved %d fault events, conservative %d", adpt.FaultEvents, cons.FaultEvents)
	}
	if !reflect.DeepEqual(coreOf(cons), coreOf(adpt)) {
		t.Errorf("flow results diverged across a fault schedule\nconservative: %+v\nadaptive:     %+v",
			coreOf(cons), coreOf(adpt))
	}
	if adpt.Shard.WidenedWindows == 0 {
		t.Error("no widened windows despite quiet stretches around the fault")
	}
	if adpt.Blackholed == 0 {
		t.Error("no blackholed packets — the fault never took effect")
	}
}

// TestAdaptiveControlEventOnWidenedEdge: periodic snapshot ticks are
// control events landing at arbitrary instants relative to widened
// windows; the edge cap at the control engine's next event time means a
// tick always executes at a barrier with every shard's sub-tick work
// flushed. Snapshots must therefore be identical across modes — same
// count, same cumulative counters, same streaming percentiles.
func TestAdaptiveControlEventOnWidenedEdge(t *testing.T) {
	mk := func(mode LookaheadMode) Config {
		cfg := tiny(ProtoTCP, 30)
		cfg.Shards = 2
		cfg.Lookahead = mode
		cfg.MaxSimTime = 2 * Second
		// A prime-ish interval so ticks land mid-window, not on round
		// numbers the workload might also use.
		cfg.Metrics.SnapshotInterval = 73 * Millisecond
		return cfg
	}
	cons, err := Run(mk(LookaheadConservative))
	if err != nil {
		t.Fatal(err)
	}
	adpt, err := Run(mk(LookaheadAdaptive))
	if err != nil {
		t.Fatal(err)
	}
	if len(adpt.Snapshots) == 0 {
		t.Fatal("no snapshots recorded")
	}
	if !reflect.DeepEqual(cons.Snapshots, adpt.Snapshots) {
		t.Errorf("snapshot series diverged: conservative %d snapshots, adaptive %d",
			len(cons.Snapshots), len(adpt.Snapshots))
	}
	if adpt.Shard.WidenedWindows == 0 {
		t.Error("no widened windows — the control-event cap was never exercised against a widened edge")
	}
}

// TestAdaptiveElisionReentry: a hotspot workload with no long flows
// leaves most shards idle most of the time — their wakeups are elided —
// yet every elided shard must re-enter the moment a cross-shard delivery
// lands in its heap (the commit happens at a barrier, so the next window
// sees the event). All flows completing proves no shard slept through a
// delivery.
func TestAdaptiveElisionReentry(t *testing.T) {
	cfg := tiny(ProtoTCP, 40)
	cfg.Shards = 4
	cfg.Lookahead = LookaheadAdaptive
	cfg.MaxSimTime = 5 * Second
	cfg.LongFraction = -1 // no long flows: boundaries go quiet between shorts
	cfg.HotspotFraction = 0.5
	cfg.HotspotHost = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 40 {
		t.Fatalf("spawned %d/40", res.Spawned)
	}
	if res.ShortSummary.Count != 40 {
		t.Errorf("only %d/40 short flows completed — an elided shard missed a delivery", res.ShortSummary.Count)
	}
	if res.Shard.ElidedWakeups == 0 {
		t.Error("no elided wakeups on a 4-shard hotspot workload")
	}
	if res.Shard.WidenedWindows == 0 {
		t.Error("no widened windows on a quiet-boundary workload")
	}
}

// TestAdaptiveQuietBoundary pins the headline perf claim in-repo: on the
// tracked quiet-boundary scenario (rack-local shorts, sparse arrivals, no
// long-flow background — ShardQuietBenchConfig, the same workload the
// BENCH.json shard-adaptive rows and the bench-smoke CI guard run),
// adaptive lookahead must cut barriers at least 2x versus conservative
// while producing identical flow-level Results. The barrier count is a
// virtual-time fact — a pure function of (Seed, Shards) — so this
// assertion is deterministic on any box, unlike wall-clock speedups.
func TestAdaptiveQuietBoundary(t *testing.T) {
	for _, n := range []int{2, 4} {
		cfg := ShardQuietBenchConfig(n, true)
		cons, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d conservative: %v", n, err)
		}
		cfg.Lookahead = LookaheadAdaptive
		adpt, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d adaptive: %v", n, err)
		}
		if a, b := coreOf(cons), coreOf(adpt); !reflect.DeepEqual(a, b) {
			t.Errorf("shards=%d: adaptive flow results diverged from conservative on the quiet scenario", n)
		}
		cb, ab := cons.Shard.Barriers, adpt.Shard.Barriers
		if ab == 0 {
			t.Fatalf("shards=%d: adaptive run reports zero barriers", n)
		}
		if ratio := float64(cb) / float64(ab); ratio < 2 {
			t.Errorf("shards=%d: barrier ratio %.2f (conservative %d / adaptive %d), want >= 2",
				n, ratio, cb, ab)
		}
	}
}

// TestLookaheadValidation covers the knob's misuse surface: adaptive on
// a sequential run is a policy with nothing to act on, unknown modes are
// rejected, and weighted partitions demand a real partition.
func TestLookaheadValidation(t *testing.T) {
	seq := tiny(ProtoTCP, 10)
	seq.Lookahead = LookaheadAdaptive
	if _, err := Run(seq); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("adaptive without shards: err = %v, want mention of Shards", err)
	}

	bad := tiny(ProtoTCP, 10)
	bad.Shards = 2
	bad.Lookahead = "optimistic"
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Errorf("unknown lookahead mode: err = %v, want mention of lookahead", err)
	}

	w := tiny(ProtoTCP, 10)
	w.ShardWeights = []float64{1, 2, 3}
	if _, err := Run(w); err == nil || !strings.Contains(err.Error(), "ShardWeights") {
		t.Errorf("weights without shards: err = %v, want mention of ShardWeights", err)
	}

	neg := tiny(ProtoTCP, 10)
	neg.Shards = 2
	neg.ShardWeights = []float64{1, -1}
	if _, err := Run(neg); err == nil || !strings.Contains(err.Error(), "ShardWeights") {
		t.Errorf("negative weight: err = %v, want mention of ShardWeights", err)
	}
}

// TestWeightedPartitionRun: a weighted partition built from a profiling
// run's measured switch loads runs the same workload to the same
// flow-level results (the partition changes the interleaving, not the
// physics is too strong a claim — it changes outcomes like any shard
// count does — so the contract is the spawn/fault invariants plus
// determinism and a distinct Shape key for pooling).
func TestWeightedPartitionRun(t *testing.T) {
	base := tiny(ProtoTCP, 30)
	base.Shards = 2
	base.MaxSimTime = 2 * Second

	inst, err := NewRunInstance(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(nil, base); err != nil {
		t.Fatal(err)
	}
	loads := inst.SwitchLoads()
	nz := 0
	for _, w := range loads {
		if w > 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("profiling run forwarded nothing")
	}

	weighted := base
	weighted.ShardWeights = loads
	weighted.Lookahead = LookaheadAdaptive
	a, err := Run(weighted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(weighted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("weighted adaptive run is nondeterministic")
	}
	if a.Spawned != 30 {
		t.Errorf("weighted run spawned %d/30", a.Spawned)
	}

	sa, err := base.Shape()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := weighted.Shape()
	if err != nil {
		t.Fatal(err)
	}
	if sa == sw {
		t.Error("weighted config shares the unweighted Shape key — pooling would reuse mismatched wiring")
	}
	if err := inst.Reset(weighted); err == nil {
		t.Error("unweighted instance accepted a weighted config")
	}
}
