package mmptcp

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// traceFaultSuite is the byte-identity matrix: faulted runs with global
// repair on both hash-seeded multi-rooted fabrics (FatTree and VL2), so
// the trace points on every layer — transports, links, switches,
// control plane, fault injector — fire while the comparison runs.
func traceFaultSuite() []Config {
	ft := tiny(ProtoMMPTCP, 40)
	ft.MaxSimTime = 15 * Second
	ft.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
		ReconvergeDelay: 20 * Millisecond,
	}
	ft.Routing.Mode = RoutingGlobal

	vl2 := tiny(ProtoTCP, 40)
	vl2.Topology = TopoVL2
	vl2.K = 4
	vl2.HostsPerEdge = 2
	vl2.MaxSimTime = 15 * Second
	vl2.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 600*Millisecond),
		ReconvergeDelay: 50 * Millisecond,
	}
	vl2.Routing.Mode = RoutingGlobal

	return []Config{ft, vl2}
}

// TestTracedRunByteIdentical is the tracing contract: a traced run's
// Results are byte-identical to the untraced run's — ring or full mode,
// serial or parallel, on fresh instances (Run) or a sweep worker's
// recycled one — because trace points only observe (no engine events, no
// RNG draws, no pool traffic). Only
// the Config echo's Trace section differs, by construction; it is
// normalised before comparison.
func TestTracedRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fault suite is slow")
	}
	mk := func(mode TraceMode) []Config {
		configs := traceFaultSuite()
		for i := range configs {
			configs[i].Trace.Mode = mode
			configs[i].Seed = uint64(i + 1)
		}
		return configs
	}
	baseline := runFresh(t, mk(TraceOff))
	for _, tc := range []struct {
		name    string
		mode    TraceMode
		workers int // 0: Run on fresh instances, no sweep
	}{
		{"ring fresh", TraceRing, 0},
		{"ring serial sweep", TraceRing, 1},
		{"ring 4 workers", TraceRing, 4},
		{"full serial sweep", TraceFull, 1},
	} {
		var got []*Results
		if tc.workers == 0 {
			got = runFresh(t, mk(tc.mode))
		} else {
			var err error
			if got, err = RunSweep(mk(tc.mode), SweepOptions{Workers: tc.workers}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range got {
			g, b := *got[i], *baseline[i]
			g.Config.Trace = TraceConfig{}
			b.Config.Trace = TraceConfig{}
			if !reflect.DeepEqual(&g, &b) {
				t.Errorf("%s, config %d: traced Results diverged from untraced", tc.name, i)
			}
		}
	}
}

// TestTracedRunCapture: a traced faulted run actually captures the
// storyline — flow lifecycle, fault injection and repair, link state,
// control-plane recomputes — in time order.
func TestTracedRunCapture(t *testing.T) {
	cfg := traceFaultSuite()[0]
	cfg.Trace.Mode = TraceFull
	// With the suite's third of hosts on long flows the trace outgrows
	// the full-mode cap (~1.9M events) and loses the late repair events;
	// a tenth keeps long flows in the story at ~0.73M events.
	cfg.LongFraction = 0.1
	res, rec, err := RunTraced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("RunTraced returned a nil recorder with tracing on")
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if rec.Lost() != 0 {
		t.Fatalf("full trace lost %d events; shrink the run so the checks below see everything", rec.Lost())
	}
	if res.FaultEvents == 0 {
		t.Fatal("fault suite resolved no fault events; the scenario is broken")
	}
	kinds := make(map[trace.Kind]int)
	last := SimTime(-1)
	for _, e := range rec.Events() {
		kinds[e.Kind]++
		if e.At < last {
			t.Fatalf("events out of order: %v after %v", e.At, last)
		}
		last = e.At
	}
	for _, want := range []trace.Kind{
		trace.KindFlowStart, trace.KindFlowEnd, trace.KindSegmentSend,
		trace.KindAck, trace.KindSubflowOpen, trace.KindEnqueue,
		trace.KindFaultInject, trace.KindFaultRepair, trace.KindLinkDown,
		trace.KindLinkUp, trace.KindRecomputeStart, trace.KindRecomputeEnd,
	} {
		if kinds[want] == 0 {
			t.Errorf("traced faulted run recorded no %v events", want)
		}
	}
	// Every flow the workload spawned starts exactly once.
	if got, want := kinds[trace.KindFlowStart], res.Spawned+len(res.LongFlows); got != want {
		t.Errorf("%d flow-start events, want %d (spawned shorts + longs)", got, want)
	}
}

// TestTraceFlowFilterRun: with a flow filter, flow-scoped events are
// restricted to the requested flows while fabric/control events (flow
// 0) still record.
func TestTraceFlowFilterRun(t *testing.T) {
	cfg := traceFaultSuite()[0]
	cfg.Trace.Mode = TraceFull
	cfg.Trace.Flows = []uint64{1}
	_, rec, err := RunTraced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flowScoped, fabric int
	for _, e := range rec.Events() {
		switch e.Flow {
		case 0:
			fabric++
		case 1:
			flowScoped++
		default:
			t.Fatalf("filtered trace kept flow %d event %v", e.Flow, e.Kind)
		}
	}
	if flowScoped == 0 {
		t.Error("filter recorded nothing for the requested flow")
	}
	if fabric == 0 {
		t.Error("filter suppressed fabric/control events")
	}
}

// TestTraceKnobValidation: the trace section rejects nonsense at config
// time, and accepts the spelled-out "off".
func TestTraceKnobValidation(t *testing.T) {
	run := func(mutate func(*Config)) error {
		cfg := tiny(ProtoTCP, 1)
		mutate(&cfg)
		_, err := Run(cfg)
		return err
	}
	if err := run(func(c *Config) { c.Trace.Mode = "bogus" }); err == nil {
		t.Error("unknown trace mode accepted")
	}
	if err := run(func(c *Config) { c.Trace.Flows = []uint64{1} }); err == nil {
		t.Error("trace flow filter without a mode accepted")
	}
	if err := run(func(c *Config) { c.Trace.Mode = "off" }); err != nil {
		t.Errorf("spelled-out off mode rejected: %v", err)
	}
}
