package mmptcp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// runFresh is the byte-identity oracle every recycling test compares
// against: each config through Run, on an instance built for it and
// thrown away.
func runFresh(t *testing.T, configs []Config) []*Results {
	t.Helper()
	out := make([]*Results, len(configs))
	for i, cfg := range configs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// sweptLikeFresh is the recycling check in one call: the configs through
// runFresh and through RunSweep at each of the worker counts, failing
// the test for every swept Results that is not byte-identical to the
// oracle's. It returns the oracle's Results for further assertions.
func sweptLikeFresh(t *testing.T, what string, configs []Config, workers ...int) []*Results {
	t.Helper()
	fresh := runFresh(t, configs)
	for _, w := range workers {
		swept, err := RunSweep(configs, SweepOptions{Workers: w})
		if err != nil {
			t.Fatalf("%s, %d workers: %v", what, w, err)
		}
		for i := range fresh {
			if !reflect.DeepEqual(fresh[i], swept[i]) {
				t.Errorf("%s, %d workers, config %d: sweep diverged from Run on a fresh instance", what, w, i)
			}
		}
	}
	return fresh
}

// resolved returns cfg the way a RunSweep job hands it to runRecycled.
func resolved(t testing.TB, cfg Config) *Config {
	t.Helper()
	if err := cfg.resolve(true); err != nil {
		t.Fatal(err)
	}
	return &cfg
}

// twoShapes is n cheap K=4 configs alternating between two shapes (A, B,
// A, B, …: FatTree with 8 and with 4 hosts per edge), each with its own
// seed — the worst case for a worker that keeps one instance.
func twoShapes(n int) []Config {
	configs := make([]Config, n)
	for i := range configs {
		configs[i] = tiny(ProtoMMPTCP, 8)
		configs[i].ArrivalRate = 20
		configs[i].Warmup = 20 * Millisecond
		configs[i].MaxSimTime = 250 * Millisecond // cut the RTO tail short
		if i%2 == 1 {
			configs[i].HostsPerEdge = 4
		}
		configs[i].Seed = uint64(i + 1)
	}
	return configs
}

// TestMixedShapeSweepByteIdentical: a sweep that changes shape at every
// job still matches per-config Run. With one worker every job replaces
// the parked instance; with two, each worker may settle on one shape and
// reuse it — both must be invisible.
func TestMixedShapeSweepByteIdentical(t *testing.T) {
	sweptLikeFresh(t, "alternating shapes", twoShapes(8), 1, 2)
}

// TestSweepAfterFailedJobIsClean: a sweep whose job i cannot run returns
// that job's error, and sweeping the same configs without job i
// afterwards matches Run — the failure leaves nothing dirty behind, in a
// slot or anywhere else.
func TestSweepAfterFailedJobIsClean(t *testing.T) {
	const bad = 3
	configs := twoShapes(6)
	for i := range configs {
		configs[i].HostsPerEdge = 8 // one shape: the failing job sits between reuses
	}
	configs[bad].ShortFlows = 0 // fails validation after an instance is taken
	for _, workers := range []int{1, 2} {
		if _, err := RunSweep(configs, SweepOptions{Workers: workers}); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("job %d", bad)) {
			t.Fatalf("%d workers: err = %v, want job %d's validation error", workers, err, bad)
		}
	}
	rest := append(append([]Config(nil), configs[:bad]...), configs[bad+1:]...)
	sweptLikeFresh(t, "after a failed sweep", rest, 1, 2)
}

// TestTakeInstanceRecycles pins what a worker's slot holds from job to
// job: nothing while a job runs, the same instance again for the same
// shape, a different one after a shape change — never two.
func TestTakeInstanceRecycles(t *testing.T) {
	configs := twoShapes(2)
	first, second := resolved(t, configs[0]), resolved(t, configs[1])
	var slot *instance
	a, err := takeInstance(first, &slot)
	if err != nil {
		t.Fatal(err)
	}
	if slot != nil {
		t.Fatal("slot still holds an instance while a job owns it")
	}
	slot = a
	if again, err := takeInstance(first, &slot); err != nil || again != a {
		t.Fatalf("same shape: got %p, %v; want the parked instance %p", again, err, a)
	}
	slot = a
	b, err := takeInstance(second, &slot)
	if err != nil {
		t.Fatal(err)
	}
	if b == a || b.shape == a.shape || slot != nil {
		t.Fatalf("shape change: got %p (parked %p), slot %p; want a fresh build and an empty slot", b, a, slot)
	}
	// A config that cannot run never reaches the slot: the sweep job's
	// resolve refuses it first.
	bad := configs[1]
	bad.Protocol = "bogus"
	if err := bad.resolve(true); err == nil {
		t.Error("invalid config resolved")
	}
}

// TestPooledSweepWorkerAllocationFree locks in the recycling payoff: once
// an instance is warm, what a sweep worker does between two same-shape
// replicates — take the parked instance from its slot, reset it for the
// next seed, park it again — allocates nothing.
func TestPooledSweepWorkerAllocationFree(t *testing.T) {
	cfg := resolved(t, tiny(ProtoMMPTCP, 20))
	var slot *instance
	// Warm the instance: real runs grow the engine's event free list and
	// the network's internal scratch to steady-state capacity.
	for s := uint64(1); s <= 2; s++ {
		cfg.Seed = s
		if _, err := runRecycled(cfg, &slot); err != nil {
			t.Fatal(err)
		}
	}
	warm := slot
	seed := uint64(3)
	allocs := testing.AllocsPerRun(100, func() {
		cfg.Seed = seed
		seed++
		inst, err := takeInstance(cfg, &slot)
		if err != nil {
			panic(err)
		}
		if inst != warm {
			panic("worker slot lost its instance")
		}
		slot = inst
	})
	if allocs != 0 {
		t.Errorf("worker slot loop allocates %.1f per replicate, want 0", allocs)
	}
}

// TestWarmReplicateAllocationBudget pins what one replicate of the
// benchmark's sweep_tiny shape (K=4, 64 hosts, 8 shorts, no long flows)
// costs a sweep worker once its instance is warm: transports, workload,
// Results — no engine, no fabric. Measured 185 objects and 23.7 KB with
// transport state sized to the flow's data runs; 274 and 47 KB while
// senders kept one mapping per segment and receivers a map of boxed
// reorder buffers (289 while every flow carried a Conn adaptor and a
// flow-map entry); 506 and 54 KB while PoissonShortFlows allocated three
// objects per sender; 1,449 and 221 KB when every replicate built its
// own instance.
func TestWarmReplicateAllocationBudget(t *testing.T) {
	cfg := Config{
		Topology:     TopoFatTree,
		K:            4,
		HostsPerEdge: 8,
		Protocol:     ProtoMMPTCP,
		ShortFlows:   8,
		ArrivalRate:  50,
		LongFraction: -1,
	}
	var slot *instance
	seed := uint64(1)
	replicate := func() { // what a RunSweep job does
		job := cfg
		job.Seed = seed
		seed++
		if err := job.resolve(true); err != nil {
			panic(err)
		}
		if _, err := runRecycled(&job, &slot); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 20; i++ { // grow rings, free lists and packet pool
		replicate()
	}
	if allocs := testing.AllocsPerRun(50, replicate); allocs > 210 {
		t.Errorf("warm replicate allocates %.0f objects, budget 210", allocs)
	}
	const reps = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		replicate()
	}
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / reps / 1024; kb > 28 {
		t.Errorf("warm replicate allocates %.1f KB, budget 28 KB", kb)
	}
}

// TestRunInstanceShapeMismatch: a parked instance is recycled only for a
// config of its own structural shape; any other config gets a fresh
// build, never a run on the wrong network.
func TestRunInstanceShapeMismatch(t *testing.T) {
	base := resolved(t, tiny(ProtoTCP, 10))
	parked, err := newInstance(base)
	if err != nil {
		t.Fatal(err)
	}
	take := func(cfg Config) *instance {
		t.Helper()
		slot := parked
		inst, err := takeInstance(resolved(t, cfg), &slot)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	other := *base
	other.HostsPerEdge = 4
	if take(other) == parked {
		t.Error("an instance was recycled for a different HostsPerEdge")
	}
	// DCTCP turns on ECN marking in every queue, so its shape differs
	// from TCP's even with identical explicit fields.
	dctcp := *base
	dctcp.Protocol = ProtoDCTCP
	if take(dctcp) == parked {
		t.Error("a TCP-shaped instance was recycled for DCTCP")
	}
	// Same shape is recycled, with any seed and workload.
	same := *base
	same.Seed = 99
	same.ShortFlows = 5
	if take(same) != parked {
		t.Error("a same-shape config did not recycle the parked instance")
	}
}

// TestMetricsKnobValidation: the metrics knob rejects nonsense cleanly
// at config time instead of misbehaving mid-run, under Run and RunSweep.
func TestMetricsKnobValidation(t *testing.T) {
	bad := tiny(ProtoTCP, 1)
	bad.Metrics.SnapshotInterval = -Millisecond
	if _, err := Run(bad); err == nil {
		t.Error("negative snapshot interval accepted")
	}
	if _, err := RunSweep([]Config{bad}, SweepOptions{}); err == nil {
		t.Error("sweep accepted a negative snapshot interval")
	}
}

// TestRollingSnapshots: a positive SnapshotInterval yields a cumulative
// time series at the configured cadence whose short-flow summaries cover
// only finished flows and stay consistent with the final summary, and
// leaves the final per-flow records and summary byte-identical to a
// snapshot-free run.
func TestRollingSnapshots(t *testing.T) {
	iv := 50 * Millisecond
	cfg := tiny(ProtoMMPTCP, 40)
	cfg.Metrics.SnapshotInterval = iv
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots recorded")
	}
	if at := res.Snapshots[0].At; at != iv {
		t.Errorf("first snapshot at %v, want %v", at, iv)
	}
	final := res.ShortSummary
	for i, snap := range res.Snapshots {
		s := snap.Short
		// Only closed flows are summarised, and every closed short flow
		// has completed.
		if s.Incomplete != 0 {
			t.Errorf("snapshot %d summarises %d incomplete flows", i, s.Incomplete)
		}
		if s.Count > 0 && !(s.MinMs <= s.P50Ms && s.P50Ms <= s.P95Ms &&
			s.P95Ms <= s.P99Ms && s.P99Ms <= s.MaxMs) {
			t.Errorf("snapshot %d percentiles out of order: %+v", i, s)
		}
		if s.MaxMs > final.MaxMs {
			t.Errorf("snapshot %d max %v exceeds the final max %v", i, s.MaxMs, final.MaxMs)
		}
		if i == 0 {
			continue
		}
		prev := res.Snapshots[i-1]
		if snap.At != prev.At+iv {
			t.Errorf("snapshot %d at %v, want %v", i, snap.At, prev.At+iv)
		}
		// Cumulative counters never decrease.
		if snap.Spawned < prev.Spawned || s.Count < prev.Short.Count ||
			s.WithRTO < prev.Short.WithRTO ||
			snap.Blackholed < prev.Blackholed || snap.NoRouteDrops < prev.NoRouteDrops {
			t.Errorf("snapshot %d went backwards: %+v after %+v", i, snap, prev)
		}
	}
	last := res.Snapshots[len(res.Snapshots)-1]
	if last.Short.Count == 0 {
		t.Error("no snapshot saw a finished short flow")
	}
	if last.Spawned > res.Spawned || last.Short.Count > final.Count {
		t.Errorf("last snapshot exceeds final totals: %+v vs spawned=%d count=%d",
			last, res.Spawned, final.Count)
	}
	// Snapshots leave the final statistics untouched.
	plain := cfg
	plain.Metrics.SnapshotInterval = 0
	base, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.ShortFlows, base.ShortFlows) {
		t.Error("snapshots perturbed the per-flow records")
	}
	if res.ShortSummary != base.ShortSummary {
		t.Errorf("snapshots perturbed the summary: %+v vs %+v", res.ShortSummary, base.ShortSummary)
	}
}
