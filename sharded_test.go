package mmptcp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
)

// shardedSuite is the PR-3 fault suite (cable cuts with global repair,
// lossy degraded cables, multi-homed FatTree cable cuts, a core-switch
// crash, rolling snapshots) with every config set to the given shard
// count, so the parallel engine runs the fault classes TestEquivalence
// holds the sequential engine to.
func shardedSuite(shards int) []Config {
	var configs []Config
	for _, proto := range []Protocol{ProtoTCP, ProtoMMPTCP} {
		fail := faultedConfig(proto, 40)
		fail.Routing.Mode = RoutingGlobal
		configs = append(configs, fail)
		deg := tiny(proto, 40)
		deg.Faults = FaultsConfig{
			Events: DegradeCables(LayerEdge, 2, 120*Millisecond, 400*Millisecond, 0.5, 0.02),
		}
		configs = append(configs, deg)
		mh := mhtiny(proto, 40)
		mh.HostsPerEdge = 2
		mh.Faults = FaultsConfig{
			Events:          FailCables(LayerAgg, 2, 150*Millisecond, 600*Millisecond),
			ReconvergeDelay: 50 * Millisecond,
		}
		configs = append(configs, mh)
	}
	crash := faultedConfig(ProtoMMPTCP, 40)
	crash.Faults = FaultsConfig{
		Events:          FailSwitches([]int{16}, 200*Millisecond, 800*Millisecond),
		ReconvergeDelay: 50 * Millisecond,
	}
	configs = append(configs, crash)
	snap := faultedConfig(ProtoTCP, 40)
	snap.Metrics.SnapshotInterval = 100 * Millisecond
	configs = append(configs, snap)
	for i := range configs {
		configs[i].Seed = uint64(i + 1)
		configs[i].Shards = shards
		// Cap the horizon: under faults a flow can sit in RTO backoff
		// for a long time, and the default 300 s horizon would make a
		// single unlucky run dominate the suite's wall time.
		configs[i].MaxSimTime = 2 * Second
	}
	return configs
}

// shardNorm clears the one field that legitimately differs between a
// sequential and a sharded run of the same experiment — Config.Shards —
// so the rest of the Results can be compared byte-for-byte.
func shardNorm(r *Results) *Results {
	c := *r
	c.Config.Shards = 0
	return &c
}

// TestShardedRunByteIdentical is the parallel engine's correctness
// contract against the sequential oracle:
//
//   - 1-shard runs are byte-identical to sequential runs (modulo the
//     Config.Shards field itself), on fresh instances and on a sweep
//     worker's recycled one — the fabric in direct mode is provably the
//     same engine.
//   - N-shard runs (N = 2, 4) are deterministic: Run on fresh instances,
//     a serial sweep and a parallel sweep (both recycling) all agree
//     byte-for-byte for a fixed (Seed, Shards). Shard count does change
//     event interleaving — the windowed barrier realises cross-shard
//     deliveries in (time, source shard, send order) and the final Stop
//     lands on a window edge — so N-shard Results are compared to the
//     oracle on the config-driven invariants (spawn and fault-event
//     counts), not byte-for-byte; the shard package documents the
//     divergence.
func TestShardedRunByteIdentical(t *testing.T) {
	seq := runFresh(t, shardedSuite(0))
	one := runFresh(t, shardedSuite(1))
	oneSwept, err := RunSweep(shardedSuite(1), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], shardNorm(one[i])) {
			t.Errorf("config %d: 1-shard run diverged from sequential oracle", i)
		}
		if !reflect.DeepEqual(seq[i], shardNorm(oneSwept[i])) {
			t.Errorf("config %d: recycled 1-shard run diverged from sequential oracle", i)
		}
	}
	for _, n := range []int{2, 4} {
		a := sweptLikeFresh(t, fmt.Sprintf("shards=%d", n), shardedSuite(n), 1, 4)
		for i := range a {
			if a[i].Spawned != seq[i].Spawned {
				t.Errorf("config %d: shards=%d spawned %d flows, oracle %d",
					i, n, a[i].Spawned, seq[i].Spawned)
			}
			if a[i].FaultEvents != seq[i].FaultEvents {
				t.Errorf("config %d: shards=%d resolved %d fault events, oracle %d",
					i, n, a[i].FaultEvents, seq[i].FaultEvents)
			}
		}
	}
}

// TestShardedSweepDeterminism locks in the two parallelism axes
// composing: a sweep of 2-shard configs returns byte-identical Results
// serial and with 4 effective workers (Workers budget 8 / 2 slots per
// sharded task).
func TestShardedSweepDeterminism(t *testing.T) {
	serial, err := RunSweep(shardedSuite(2), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweep(shardedSuite(2), SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("config %d: parallel sharded sweep diverged from serial", i)
		}
	}
}

// TestShardsValidation covers the -shards misuse surface: negative
// counts, more shards than switches, and the one fault knob whose RNG
// stream is inherently cross-shard (layer-wide random loss).
func TestShardsValidation(t *testing.T) {
	neg := tiny(ProtoTCP, 10)
	neg.Shards = -1
	if _, err := Run(neg); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("negative Shards: err = %v, want mention of Shards", err)
	}

	many := tiny(ProtoTCP, 10)
	many.Shards = 21 // a K=4 fat-tree has 20 switches
	if _, err := Run(many); err == nil {
		t.Error("Shards > switch count accepted")
	}

	loss := tiny(ProtoTCP, 10)
	loss.Shards = 2
	loss.Faults = FaultsConfig{Events: []FaultEvent{{
		At: Millisecond, Kind: faults.Degrade, Layer: LayerEdge, Index: -1, LossRate: 0.01,
	}}}
	if _, err := Run(loss); err == nil || !strings.Contains(err.Error(), "DegradeCables") {
		t.Errorf("layer-wide loss with Shards=2: err = %v, want DegradeCables hint", err)
	}

	// Tracing runs on the sequential engine: every entry point rejects
	// a traced run on two shards, naming both fields; one shard traces.
	for _, mode := range []TraceMode{TraceRing, TraceFull} {
		traced := tiny(ProtoTCP, 10)
		traced.Trace.Mode = mode
		traced.Shards = 2
		_, rec, traceErr := RunTraced(traced)
		_, runErr := Run(traced)
		_, sweepErr := RunSweep([]Config{traced}, SweepOptions{})
		for entry, err := range map[string]error{"RunTraced": traceErr, "Run": runErr, "RunSweep": sweepErr} {
			if err == nil || !strings.Contains(err.Error(), "Trace.Mode") || !strings.Contains(err.Error(), "Shards") {
				t.Errorf("%s, Trace.Mode %s at Shards=2: err = %v, want mention of Trace.Mode and Shards", entry, mode, err)
			}
		}
		if rec != nil {
			t.Errorf("Trace.Mode %s at Shards=2 returned a recorder", mode)
		}
		traced.Shards = 1
		if _, rec, err := RunTraced(traced); err != nil || rec == nil {
			t.Errorf("Trace.Mode %s at Shards=1: rec %v, err = %v, want a trace", mode, rec, err)
		}
	}
}

// TestShardedShapeMismatch: the shard count is structural — a parked
// instance built for one count is never recycled for another.
func TestShardedShapeMismatch(t *testing.T) {
	cfg := tiny(ProtoTCP, 10)
	cfg.Shards = 2
	parked, err := newInstance(resolved(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	slot := parked
	if inst, err := takeInstance(resolved(t, cfg), &slot); err != nil || inst == parked {
		t.Errorf("a 2-shard instance was recycled for 4 shards (err %v)", err)
	}
}

// TestShardedElisionReentry: a hotspot workload with no long flows
// leaves most shards idle most of the time — their wakeups are elided —
// yet every elided shard must re-enter the moment a cross-shard delivery
// lands in its heap (the commit happens at a barrier, so the next window
// sees the event). All flows completing proves no shard slept through a
// delivery.
func TestShardedElisionReentry(t *testing.T) {
	cfg := tiny(ProtoTCP, 40)
	cfg.Shards = 4
	cfg.MaxSimTime = 5 * Second
	cfg.LongFraction = -1 // no long flows: boundaries go quiet between shorts
	cfg.HotspotFraction = 0.5
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
}
