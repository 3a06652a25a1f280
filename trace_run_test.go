package mmptcp

import (
	"testing"

	"repro/internal/trace"
)

// tracedFaultConfig is the run the trace tests record: two agg-core
// cables cut and repaired under global repair on the FatTree, so the
// trace points on every layer — transports, links, switches, control
// plane, fault injector — fire.
func tracedFaultConfig() Config {
	cfg := tiny(ProtoMMPTCP, 40)
	cfg.MaxSimTime = 15 * Second
	cfg.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 900*Millisecond),
		ReconvergeDelay: 20 * Millisecond,
	}
	cfg.Routing.Mode = RoutingGlobal
	return cfg
}

// TestTracedRunCapture: a traced faulted run actually captures the
// storyline — flow lifecycle, fault injection and repair, link state,
// control-plane recomputes — in time order.
func TestTracedRunCapture(t *testing.T) {
	cfg := tracedFaultConfig()
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
	if err := run(func(c *Config) { c.Trace.Mode = "off" }); err != nil {
		t.Errorf("spelled-out off mode rejected: %v", err)
	}
}
