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
// FatTree and the VL2 Clos (a K=4 VL2 with two hosts per ToR adds a third
// fabric shape, so recycling sweep workers change instances mid-sweep),
// under local and global repair, with transport recovery, phase-switch
// deferral, staggered convergence and rolling snapshots, plus five
// healthy scans. Seeds are distinct, so a recycled instance must
// re-derive its hash seeds and RNG streams rather than inherit them.
// Entry names start with their group; each group's 4-worker sweep is a
// test of its own below. Every run ends at a 2 s horizon: time for each entry's faults, repairs
// and reconvergence to play out, while a single-path flow stranded in RTO
// backoff, and the long flows beside it, cannot run the suite's cost up.
func equivalenceSuite() []suiteEntry {
	const horizon = 2 * Second
	var suite []suiteEntry
	add := func(name string, cfg Config, what string, ran func(*Results) bool) {
		cfg.Seed = uint64(len(suite) + 1)
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

	// Global repair: cable cuts with repair, a whole-switch crash and
	// sampled agg-layer failures on both fabrics.
	vl2small := vl2tiny(ProtoTCP, 40)
	vl2small.HostsPerEdge = 2
	for _, fabric := range []struct {
		name                 string
		cables, crash, model Config
		crashed              int // core 0 on the FatTree, intermediate 0 on VL2
	}{
		{"fattree", tiny(ProtoMMPTCP, 40), tiny(ProtoTCP, 40), tiny(ProtoMMPTCP, 40), 16},
		{"vl2", vl2small, vl2tiny(ProtoTCP, 40), vl2tiny(ProtoMMPTCP, 40), 12},
	} {
		fabric.cables.Faults = FaultsConfig{
			Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
			ReconvergeDelay: 20 * Millisecond,
		}
		fabric.crash.Faults = FaultsConfig{
			Events:          FailSwitches([]int{fabric.crashed}, 200*Millisecond, 800*Millisecond),
			ReconvergeDelay: 10 * Millisecond,
		}
		fabric.model.Faults = aggModel(4*Second, 100*Millisecond, 10*Millisecond)
		for i, cfg := range []Config{fabric.cables, fabric.crash, fabric.model} {
			cfg.Routing.Mode = RoutingGlobal
			add("global/"+fabric.name+"-"+[]string{"cables", "crash", "model"}[i], cfg, "recomputed", recomputed)
		}
	}

	// Local repair: cable cuts, lossy slow edge cables and sampled agg
	// failures on each transport class, and a core-switch crash.
	for _, proto := range []Protocol{ProtoTCP, ProtoMMPTCP} {
		add("local/cables-"+string(proto), faultedConfig(proto, 40), "faulted", faulted)
		deg := tiny(proto, 40)
		deg.Faults = FaultsConfig{
			Events: DegradeCables(LayerEdge, 2, 120*Millisecond, 400*Millisecond,
				0.5, 50*Microsecond, 0.02),
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
	deferral.Transport = TransportConfig{DeadRTOs: 2, DeferPhaseSwitch: true, MaxDefer: 40 * Millisecond}
	add("recovery/defer", deferral, "deferred a phase switch", func(r *Results) bool { return r.PhaseDeferrals > 0 })

	// Staggered convergence with a real per-hop delay, and sampled
	// agg-layer churn under it.
	add("staggered/fattree", transientConfig(ProtoMMPTCP, 40, 2, 2*Millisecond), "flipped", flipped)
	vl2 := vl2tiny(ProtoTCP, 40)
	vl2.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
		ReconvergeDelay: 10 * Millisecond,
	}
	vl2.Routing = RoutingConfig{Mode: RoutingGlobal, Convergence: ConvergeStaggered, PerHopDelay: 3 * Millisecond}
	add("staggered/vl2", vl2, "flipped", flipped)
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

// resultsHash is the golden fingerprint of a run: the first 12 bytes of
// the SHA-256 of its Results printed with %#v.
func resultsHash(r *Results) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", *r)))
	return hex.EncodeToString(sum[:12])
}

// goldenResults pins every suite entry's Results absolutely. A change
// that moves one says why; the test prints the table to paste.
var goldenResults = map[string]string{
	"global/fattree-cables":  "2d3e916989ad68eb41782e8f",
	"global/fattree-crash":   "c57c4312bfe4d544f172f933",
	"global/fattree-model":   "69da4ba0e17eb792de646311",
	"global/vl2-cables":      "245ef8ee01003e38930024e6",
	"global/vl2-crash":       "1532068d16bfce8975a99912",
	"global/vl2-model":       "623f67c55cfd26107c42010c",
	"local/cables-tcp":       "b1fa937771a13bc1d3c9f570",
	"local/degrade-tcp":      "a819f4f5a9926bcd51523e12",
	"local/model-tcp":        "c8fe5e773151ac98d1e1d67d",
	"local/cables-mmptcp":    "207b1eadb92d30aedb58d7dd",
	"local/degrade-mmptcp":   "302ac4ebf8a163e671270848",
	"local/model-mmptcp":     "0e2c53969c32386d890dd500",
	"local/crash":            "2edc09c4a0b36bd9b599d7e9",
	"recovery/redial-mptcp":  "27b631ac2ac14edc69b0e676",
	"recovery/redial-mmptcp": "f7f40eb5d7982ea2f303adea",
	"recovery/defer":         "bf68d72bd514d8bc6b5af6af",
	"staggered/fattree":      "10655f96ea74579f252aca77",
	"staggered/vl2":          "9a5858c4ec52298a07584df0",
	"staggered/churn":        "c2e7f961881ed19c479a3ae4",
	"snapshots":              "c5090fcdd47872905d377778",
	"healthy/tcp-2.5":        "38726da3696f0e50a146f3d2",
	"healthy/mptcp-2.5":      "6543c89b8fa4e124851bb205",
	"healthy/mptcp-5":        "acd81659d350a69a9efcc81e",
	"healthy/mmptcp-2.5":     "270690ea375a43ec29106f19",
	"healthy/mmptcp-5":       "9b851eb1431e910cd41848cc",
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
			h := resultsHash(baseline(t, i))
			moved = moved || goldenResults[e.name] != h
			fmt.Fprintf(&table, "\t%q: %q,\n", e.name, h)
		}
		if moved || len(goldenResults) != len(suite) {
			t.Errorf("golden Results moved; the table for the Results this build computes:\n"+
				"var goldenResults = map[string]string{\n%s}", table.String())
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
// crashes and sampled models on FatTree and two VL2 shapes.
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
