package mmptcp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// suiteEntry is one config of the equivalence suite, with the check that
// the dynamics it is in the suite for actually ran.
type suiteEntry struct {
	name string
	cfg  Config
	what string // what ran checks, for the failure message
	ran  func(*Results) bool
}

// equivalenceSuite is the one fault suite: every fault class on the
// FatTree and the multi-homed FatTree (a K=4 multi-homed FatTree with two
// hosts per edge adds a third fabric shape, so recycling sweep workers
// change instances mid-sweep), under local and global repair, with
// transport recovery, phase-switch deferral, staggered convergence and
// rolling snapshots, plus five healthy scans. Seeds are distinct, so a
// recycled instance must re-derive its hash seeds and RNG streams rather
// than inherit them. Entry names start with their group; each group's
// 4-worker sweep is a test of its own below. Every run ends at a 2 s
// horizon: time for each entry's faults, repairs and reconvergence to
// play out, while a single-path flow stranded in RTO backoff, and the
// long flows beside it, cannot run the suite's cost up.
func equivalenceSuite() []suiteEntry {
	const horizon = 2 * Second
	var suite []suiteEntry
	var seed uint64
	add := func(name string, cfg Config, what string, ran func(*Results) bool) {
		seed++
		cfg.Seed = seed
		cfg.MaxSimTime = horizon
		suite = append(suite, suiteEntry{name, cfg, what, ran})
	}
	recomputed := func(r *Results) bool { return r.Routing.Recomputes > 0 }
	faulted := func(r *Results) bool { return r.FaultEvents > 0 }
	flipped := func(r *Results) bool { return r.Routing.Flips > 0 }
	completed := func(r *Results) bool { return r.ShortSummary.Count > 0 }
	aggModel := func(mtbf, mttr, reconverge SimTime) FaultsConfig {
		return FaultsConfig{
			Model: FaultModel{
				Layers:  []FaultLayerModel{{Layer: LayerAgg, MTBF: mtbf, MTTR: mttr}},
				Horizon: horizon,
			},
			ReconvergeDelay: reconverge,
		}
	}

	// Global repair: cable cuts with repair, a crash of switch 16 (core 0
	// on both fabrics) and sampled agg-layer failures.
	global := func(fabric string, cables, crash, model Config) {
		cables.Faults = FaultsConfig{
			Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
			ReconvergeDelay: 20 * Millisecond,
		}
		crash.Faults = FaultsConfig{
			Events:          FailSwitches([]int{16}, 200*Millisecond, 800*Millisecond),
			ReconvergeDelay: 10 * Millisecond,
		}
		model.Faults = aggModel(4*Second, 100*Millisecond, 10*Millisecond)
		for i, cfg := range []Config{cables, crash, model} {
			cfg.Routing.Mode = RoutingGlobal
			add("global/"+fabric+"-"+[]string{"cables", "crash", "model"}[i], cfg, "recomputed", recomputed)
		}
	}
	global("fattree", tiny(ProtoMMPTCP, 40), tiny(ProtoTCP, 40), tiny(ProtoMMPTCP, 40))
	// Seeds 4-6 and 18 went to VL2 entries, deleted with the topology;
	// skipping them keeps every later entry's seed, and so its golden.
	seed += 3

	// Local repair: cable cuts, lossy slow edge cables and sampled agg
	// failures on each transport class, and a core-switch crash.
	for _, proto := range []Protocol{ProtoTCP, ProtoMMPTCP} {
		add("local/cables-"+string(proto), faultedConfig(proto, 40), "faulted", faulted)
		deg := tiny(proto, 40)
		deg.Faults = FaultsConfig{
			Events: DegradeCables(LayerEdge, 2, 120*Millisecond, 400*Millisecond, 0.5, 0.02),
		}
		add("local/degrade-"+string(proto), deg, "faulted", faulted)
		model := tiny(proto, 40)
		model.Faults = aggModel(2*Second, 200*Millisecond, 10*Millisecond)
		add("local/model-"+string(proto), model, "faulted", faulted)
	}
	crash := tiny(ProtoMMPTCP, 40)
	crash.Faults = FaultsConfig{
		Events:          FailSwitches([]int{16}, 200*Millisecond, 800*Millisecond),
		ReconvergeDelay: 50 * Millisecond,
	}
	add("local/crash", crash, "faulted", faulted)

	// Transport recovery: re-dialing through a 1.35 s local-repair
	// outage, and MMPTCP phase switches deferred behind a staggered
	// convergence window that a cut at 2 ms opens at 4 ms, while the long
	// flows cross SwitchBytes (~8 ms in).
	for _, proto := range []Protocol{ProtoMPTCP, ProtoMMPTCP} {
		cfg := tiny(proto, 40)
		cfg.Faults = FaultsConfig{
			Events:          FailCables(LayerAgg, 2, 150*Millisecond, 1500*Millisecond),
			ReconvergeDelay: 25 * Millisecond,
		}
		cfg.Transport = TransportConfig{DeadRTOs: 2, RedialBudget: 8}
		add("recovery/redial-"+string(proto), cfg, "re-dialed", func(r *Results) bool { return r.Redials > 0 })
	}
	deferral := tiny(ProtoMMPTCP, 40)
	deferral.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 1, 2*Millisecond, 600*Millisecond),
		ReconvergeDelay: 2 * Millisecond,
	}
	deferral.Routing = RoutingConfig{Mode: RoutingGlobal, Convergence: ConvergeStaggered, PerHopDelay: 5 * Millisecond}
	deferral.Transport = TransportConfig{DeadRTOs: 2, DeferPhaseSwitch: true}
	add("recovery/defer", deferral, "deferred a phase switch", func(r *Results) bool { return r.PhaseDeferrals > 0 })

	// Staggered convergence with a real per-hop delay, and sampled
	// agg-layer churn under it.
	add("staggered/fattree", transientConfig(ProtoMMPTCP, 40, 2, 2*Millisecond), "flipped", flipped)
	seed++ // the deleted staggered/vl2
	churn := transientConfig(ProtoTCP, 40, 2, 2*Millisecond)
	churn.Faults = aggModel(500*Millisecond, 50*Millisecond, 5*Millisecond)
	add("staggered/churn", churn, "flipped", flipped)

	snap := faultedConfig(ProtoTCP, 40)
	snap.Metrics.SnapshotInterval = 100 * Millisecond
	add("snapshots", snap, "recorded snapshots", func(r *Results) bool { return len(r.Snapshots) > 0 })

	// Healthy scans: three transports at two arrival rates.
	for _, scan := range []struct {
		proto Protocol
		rate  float64
	}{{ProtoTCP, 2.5}, {ProtoMPTCP, 2.5}, {ProtoMPTCP, 5}, {ProtoMMPTCP, 2.5}, {ProtoMMPTCP, 5}} {
		cfg := SmallConfig(scan.proto, 30)
		cfg.ArrivalRate = scan.rate
		add(fmt.Sprintf("healthy/%s-%g", scan.proto, scan.rate), cfg, "completed short flows", completed)
	}

	// The multi-homed FatTree: its rows are filled by breadth-first
	// search, not from the FatTree's structure.
	mhCables := mhtiny(ProtoTCP, 40)
	mhCables.HostsPerEdge = 2
	global("multihomed", mhCables, mhtiny(ProtoTCP, 40), mhtiny(ProtoMMPTCP, 40))
	mh := mhtiny(ProtoTCP, 40)
	mh.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
		ReconvergeDelay: 10 * Millisecond,
	}
	mh.Routing = RoutingConfig{Mode: RoutingGlobal, Convergence: ConvergeStaggered, PerHopDelay: 3 * Millisecond}
	add("staggered/multihomed", mh, "flipped", flipped)
	return suite
}

// transform is one way of running a config that must not change its
// Results, beyond the fields norm clears on both sides.
type transform struct {
	name    string
	only    func(suiteEntry) bool // the entries it applies to; nil for all
	workers int                   // 0: Run on a fresh instance; else RunSweep
	mutate  func(*Config)
	norm    func(*Results)
	pre     func(*Results) string // a precondition on the transformed run: "" when it holds
}

// globalAtomic selects the global-repair entries under atomic convergence:
// every fault class on both fabrics, with the control plane running.
func globalAtomic(e suiteEntry) bool {
	return e.cfg.Routing.Mode == RoutingGlobal && e.cfg.Routing.Convergence == ""
}

func traced(mode TraceMode) func(*Config) { return func(c *Config) { c.Trace.Mode = mode } }

func untraced(r *Results) { r.Config.Trace = TraceConfig{} }

// transforms is the table of Results-preserving ways to execute a config:
// recycling sweep workers, tracing, zero-delay staggered convergence and
// armed but untriggered transport recovery.
var transforms = []transform{
	{name: "sweep-1-worker", workers: 1},
	// Trace points only observe: no engine events, RNG draws or pool
	// traffic.
	{name: "ring-trace", only: globalAtomic, mutate: traced(TraceRing), norm: untraced},
	{name: "ring-trace-sweep-1-worker", only: globalAtomic, workers: 1, mutate: traced(TraceRing), norm: untraced},
	{name: "ring-trace-sweep-4-workers", only: globalAtomic, workers: 4, mutate: traced(TraceRing), norm: untraced},
	{name: "full-trace-sweep-1-worker", only: globalAtomic, workers: 1, mutate: traced(TraceFull), norm: untraced},
	// With PerHopDelay zero every flip lands inline at recompute time.
	// Only what names the mechanism and counts its flips is normalised:
	// the window counters stay in the comparison and must be zero.
	{
		name:   "staggered-zero-delay",
		only:   globalAtomic,
		mutate: func(c *Config) { c.Routing.Convergence = ConvergeStaggered },
		norm: func(r *Results) {
			r.Config.Routing.Convergence, r.Routing.Convergence = "", ""
			r.Routing.Flips, r.Routing.FirstFlip, r.Routing.LastFlip = 0, 0, 0
		},
		pre: func(r *Results) string {
			rt := r.Routing
			if rt.TransientTime != 0 || r.LoopDrops != 0 || rt.TransientNoRoute != 0 || rt.StaleLookups != 0 {
				return fmt.Sprintf("zero-delay staggering opened a transient window: %+v, %d loop drops", rt, r.LoopDrops)
			}
			return ""
		},
	},
	// Arming DeadRTOs changes neither the RNG draws nor the event schedule
	// until a re-dial fires.
	{
		name: "recovery-armed",
		only: func(e suiteEntry) bool {
			return strings.HasPrefix(e.name, "healthy/") && e.cfg.Protocol == ProtoMPTCP
		},
		mutate: func(c *Config) { c.Transport.DeadRTOs = 3 },
		norm:   func(r *Results) { r.Config = Config{} },
		pre: func(r *Results) string {
			if r.Redials != 0 {
				return fmt.Sprintf("re-dialed %d times; the identity needs a run that never re-dials", r.Redials)
			}
			return ""
		},
	},
}

// resultsHashes is the golden fingerprint of a run: the first 12 bytes of
// the SHA-256 of its Results printed with %#v, in full and without the
// Config echo. The second column holds still when a Config field is
// added or deleted, so it tells a moved simulation from a moved echo.
func resultsHashes(r *Results) [2]string {
	hash := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:12])
	}
	var bare strings.Builder
	v := reflect.ValueOf(*r)
	for i := range v.NumField() {
		if f := v.Type().Field(i); f.Name != "Config" {
			fmt.Fprintf(&bare, "%s:%#v\n", f.Name, v.Field(i).Interface())
		}
	}
	return [2]string{hash(fmt.Sprintf("%#v", *r)), hash(bare.String())}
}

// goldenResults pins every suite entry's Results absolutely: the full
// hash, then the Config-free one. A change that moves one says why; the
// test prints the table to paste.
var goldenResults = map[string][2]string{
	"global/fattree-cables":    {"9ae1d18a7945ad1c180df54e", "444c4251d7799ae4c3aa2922"},
	"global/fattree-crash":     {"858c88fe932ad26517f119b8", "451511be794c6392f694d8f8"},
	"global/fattree-model":     {"a0f6eeab78d3434d56a31af9", "adcd8bcca8c9344ca6da78c1"},
	"local/cables-tcp":         {"4a2bd0762e51268b3315de53", "745d1457b044840e606d9128"},
	"local/degrade-tcp":        {"34fd4fbba52099abedd72d8e", "8d3ce07b8fc8cf4d37fdf498"},
	"local/model-tcp":          {"a8a8fe24ad470802205b795f", "05526ecec63902f67c7a595e"},
	"local/cables-mmptcp":      {"4757ba81bc9a110220d74c0a", "acdd4be473f7a949762fb164"},
	"local/degrade-mmptcp":     {"12f69f77fcaa66b7d988236a", "86628e129985ac8e797a0360"},
	"local/model-mmptcp":       {"bff05072d9ecf07a262c4a50", "52f15af7eb128a3bcd0f6f2d"},
	"local/crash":              {"8dcdf7837000f2a3588515a0", "729fb65d50e8bddfa3c60e01"},
	"recovery/redial-mptcp":    {"8c6a94882cdda4a7a27ac2c2", "e48267301f894c8b516f65f0"},
	"recovery/redial-mmptcp":   {"a53b3324f75627998ada70c9", "aa1e80d6e3d538652da80d35"},
	"recovery/defer":           {"400809b2ce4f0e4d8615bd74", "4df98f14318b2bf737121489"},
	"staggered/fattree":        {"0a709b359b36d0e5a4432e6e", "4f745872f90e43e6ff59bfdd"},
	"staggered/churn":          {"0003957c2fece121fb59eee0", "1647fd8bf05e3d77f8ac5ffe"},
	"snapshots":                {"9080afea7ae0d1f719db6620", "7ed948c84b95fc3b2ea15e52"},
	"healthy/tcp-2.5":          {"ec2b8671cf12736c4866ee86", "b993f2cff71d71faf1a1754e"},
	"healthy/mptcp-2.5":        {"d38d2dcd7b5c1d1bb0b8786e", "cc4f6e4bbe584c21c1a70154"},
	"healthy/mptcp-5":          {"bf26a2ec257d7931346edd6b", "f1f5d0163419ac905ff931b9"},
	"healthy/mmptcp-2.5":       {"9f0522277d48e46543067ac5", "2788a425f1dda4ca499dcfd3"},
	"healthy/mmptcp-5":         {"dd9bf50fa5917ab5ef7fbf30", "7011ce4c0611a365809fd85a"},
	"global/multihomed-cables": {"d900f41dce7bc20077fcee5e", "749ec01227582e96b3a0d262"},
	"global/multihomed-crash":  {"a532ebb15cbe829626272d75", "d96f0775433f8917f5c64fa8"},
	"global/multihomed-model":  {"ef17587c19d920f29030bedc", "d3cfb4df886d696634697770"},
	"staggered/multihomed":     {"38647dc30f211750ffc95247", "521437d2420641348e37e679"},
}

// equivalence is the suite every test of this file draws on, and each
// entry's baseline: its Results from Run on a fresh instance, computed
// the first time a test asks for it and shared from then on.
var equivalence = struct {
	suite []suiteEntry
	base  []baselineRun
}{suite: equivalenceSuite()}

type baselineRun struct {
	once sync.Once
	res  *Results
	err  error
}

func init() { equivalence.base = make([]baselineRun, len(equivalence.suite)) }

// baseline is suite entry i's Results from Run on a fresh instance.
func baseline(t *testing.T, i int) *Results {
	b := &equivalence.base[i]
	b.once.Do(func() { b.res, b.err = Run(equivalence.suite[i].cfg) })
	if b.err != nil {
		t.Fatalf("%s: %v", equivalence.suite[i].name, b.err)
	}
	return b.res
}

// TestEquivalence is the determinism contract the robustness figures rest
// on: a Config fully determines its Results, whatever the worker count,
// instance recycling, tracing, convergence mode or armed recovery. The
// suite runs once through Run on fresh instances as the baseline, which
// must match the golden hashes; every transform then runs its subset of
// the suite and must reproduce the baseline byte for byte. The 4-worker
// sweep of the whole suite is split by entry group across the
// *SweepDeterminism tests and TestPooledSweepByteIdentical below.
func TestEquivalence(t *testing.T) {
	suite := equivalence.suite
	t.Run("baseline", func(t *testing.T) {
		for i, e := range suite {
			t.Run(e.name, func(t *testing.T) {
				t.Parallel()
				if !e.ran(baseline(t, i)) {
					t.Errorf("never %s: the entry exercises nothing", e.what)
				}
			})
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	// arm64 fuses multiply-adds, so its floats may differ in the last bit.
	if runtime.GOARCH == "amd64" {
		var table strings.Builder
		moved := false
		for i, e := range suite {
			h := resultsHashes(baseline(t, i))
			moved = moved || goldenResults[e.name] != h
			fmt.Fprintf(&table, "\t%q: {%q, %q},\n", e.name, h[0], h[1])
		}
		if moved || len(goldenResults) != len(suite) {
			t.Errorf("golden Results moved; the table for the Results this build computes:\n"+
				"var goldenResults = map[string][2]string{\n%s}", table.String())
		}
	}

	for _, tr := range transforms {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			checkTransform(t, tr)
		})
	}
}

// checkTransform runs tr over its subset of the suite and compares every
// Results with the entry's baseline.
func checkTransform(t *testing.T, tr transform) {
	suite := equivalence.suite
	var idx []int
	var configs []Config
	for i, e := range suite {
		if tr.only != nil && !tr.only(e) {
			continue
		}
		cfg := e.cfg
		if tr.mutate != nil {
			tr.mutate(&cfg)
		}
		idx, configs = append(idx, i), append(configs, cfg)
	}
	if len(configs) == 0 {
		t.Fatal("applies to no suite entry")
	}
	var got []*Results
	if tr.workers == 0 {
		got = runFresh(t, configs)
	} else {
		var err error
		if got, err = RunSweep(configs, SweepOptions{Workers: tr.workers}); err != nil {
			t.Fatal(err)
		}
	}
	for j, i := range idx {
		if tr.pre != nil {
			if msg := tr.pre(got[j]); msg != "" {
				t.Errorf("%s: %s", suite[i].name, msg)
			}
		}
		g, b := *got[j], *baseline(t, i)
		if tr.norm != nil {
			tr.norm(&g)
			tr.norm(&b)
		}
		if !reflect.DeepEqual(&g, &b) {
			t.Errorf("%s: Results diverged from the baseline", suite[i].name)
		}
	}
}

// sweepGroup is the 4-worker sweep of the suite entries whose names start
// with one of prefixes: each worker recycles its instance across the
// group's fabric shapes and fault classes, with other jobs in flight.
func sweepGroup(prefixes ...string) transform {
	return transform{workers: 4, only: func(e suiteEntry) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(e.name, p) {
				return true
			}
		}
		return false
	}}
}

// TestGlobalRoutingSweepDeterminism sweeps the global-repair cuts,
// crashes and sampled models on the FatTree and two multi-homed FatTree
// shapes.
func TestGlobalRoutingSweepDeterminism(t *testing.T) { checkTransform(t, sweepGroup("global/")) }

// TestFaultedSweepDeterminism sweeps the local-repair cuts, degradation,
// sampled models and core crash.
func TestFaultedSweepDeterminism(t *testing.T) { checkTransform(t, sweepGroup("local/")) }

// TestRedialDeterminism sweeps the re-dial and phase-switch deferral
// entries.
func TestRedialDeterminism(t *testing.T) { checkTransform(t, sweepGroup("recovery/")) }

// TestStaggeredSweepDeterminism sweeps staggered convergence with a real
// per-hop delay on both fabrics, and the churn under it.
func TestStaggeredSweepDeterminism(t *testing.T) { checkTransform(t, sweepGroup("staggered/")) }

// TestPooledSweepByteIdentical sweeps the rest of the suite: rolling
// snapshots on recycled instances and the healthy scans.
func TestPooledSweepByteIdentical(t *testing.T) {
	checkTransform(t, sweepGroup("snapshots", "healthy/"))
}
