package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netem"
	"repro/internal/sim"
)

func rec(id uint64, fctMs float64, timeouts int64) FlowRecord {
	return FlowRecord{
		ID:        id,
		Class:     ShortFlow,
		Completed: true,
		Start:     0,
		End:       sim.Time(fctMs * float64(sim.Millisecond)),
		Timeouts:  timeouts,
	}
}

func TestSummarizeBasics(t *testing.T) {
	recs := []FlowRecord{
		rec(1, 100, 0),
		rec(2, 200, 1),
		rec(3, 300, 0),
		{ID: 4, Completed: false},
	}
	s := Summarize(recs)
	if s.Count != 3 || s.Incomplete != 1 {
		t.Fatalf("count=%d incomplete=%d", s.Count, s.Incomplete)
	}
	if math.Abs(s.MeanMs-200) > 1e-9 {
		t.Errorf("mean = %v, want 200", s.MeanMs)
	}
	wantStd := math.Sqrt((100.0*100 + 0 + 100*100) / 3)
	if math.Abs(s.StdMs-wantStd) > 1e-9 {
		t.Errorf("std = %v, want %v", s.StdMs, wantStd)
	}
	if s.MinMs != 100 || s.MaxMs != 300 {
		t.Errorf("min=%v max=%v", s.MinMs, s.MaxMs)
	}
	if s.P50Ms != 200 {
		t.Errorf("p50 = %v, want 200", s.P50Ms)
	}
	if s.WithRTO != 1 {
		t.Errorf("withRTO = %d, want 1", s.WithRTO)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.MeanMs != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	vals := []float64{10, 20, 30, 40}
	if got := percentile(vals, 0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(vals, 1); got != 40 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(vals, 0.5); got != 25 {
		t.Errorf("p50 = %v, want 25", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

// Property: mean and std match a naive recomputation; percentiles are
// monotone and bounded by [min, max].
func TestSummarizeProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var recs []FlowRecord
		var sum float64
		for i, v := range raw {
			ms := float64(v%10000) + 1
			recs = append(recs, rec(uint64(i), ms, 0))
			sum += ms
		}
		s := Summarize(recs)
		mean := sum / float64(len(raw))
		if math.Abs(s.MeanMs-mean) > 1e-6 {
			return false
		}
		var sq float64
		for _, v := range raw {
			ms := float64(v%10000) + 1
			sq += (ms - mean) * (ms - mean)
		}
		if math.Abs(s.StdMs-math.Sqrt(sq/float64(len(raw)))) > 1e-6 {
			return false
		}
		return s.MinMs <= s.P50Ms && s.P50Ms <= s.P95Ms &&
			s.P95Ms <= s.P99Ms && s.P99Ms <= s.MaxMs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFlowRecordFCTAndThroughput(t *testing.T) {
	r := FlowRecord{
		Completed: true,
		Start:     100 * sim.Millisecond,
		End:       250 * sim.Millisecond,
		Delivered: 12_500_000, // 100 Mb over 1s window below
	}
	if got := r.FCT(); got != 150*sim.Millisecond {
		t.Errorf("FCT = %v", got)
	}
	if got := r.ThroughputMbps(1100 * sim.Millisecond); math.Abs(got-100) > 1e-9 {
		t.Errorf("throughput = %v Mb/s, want 100", got)
	}
	incomplete := FlowRecord{Completed: false, End: 0}
	if incomplete.FCT() != 0 {
		t.Error("incomplete FCT should be 0")
	}
	if got := r.ThroughputMbps(50 * sim.Millisecond); got != 0 {
		t.Errorf("throughput over negative window = %v", got)
	}
}

func TestFlowClassString(t *testing.T) {
	if ShortFlow.String() != "short" || LongFlow.String() != "long" {
		t.Error("class names")
	}
}

func TestLayerReport(t *testing.T) {
	eng := sim.NewEngine()
	type nullNode struct{ netem.NodeID }
	a := netem.NewHost(eng, 1)
	b := netem.NewHost(eng, 2)
	agg := netem.NewLink(eng, a, b, 100_000_000, 0, 2, netem.LayerAgg)
	core := netem.NewLink(eng, a, b, 100_000_000, 0, 100, netem.LayerCore)
	for i := 0; i < 10; i++ {
		agg.Enqueue(&netem.Packet{Size: 1500, FlowID: 9, Flags: netem.FlagData})
	}
	core.Enqueue(&netem.Packet{Size: 1500, FlowID: 9, Flags: netem.FlagData})
	eng.Run()

	rep := LayerReport([]*netem.Link{agg, core}, eng.Now())
	ag := rep[netem.LayerAgg]
	if ag.Drops != 7 { // 1 in transmitter + 2 queued survive
		t.Errorf("agg drops = %d, want 7", ag.Drops)
	}
	if ag.LossRate <= 0.5 || ag.LossRate >= 0.8 {
		t.Errorf("agg loss rate = %v", ag.LossRate)
	}
	co := rep[netem.LayerCore]
	if co.Drops != 0 || co.TxPackets != 1 {
		t.Errorf("core stats: %+v", co)
	}
	if ag.Links != 1 || co.Links != 1 {
		t.Error("link counts wrong")
	}
	_ = nullNode{}
}

func TestHistogram(t *testing.T) {
	h := NewFCTHistogram(100, 500, 1000)
	for _, ms := range []float64{50, 99, 100, 101, 800, 5000} {
		h.Observe(sim.Time(ms * float64(sim.Millisecond)))
	}
	want := []int{3, 1, 1, 1} // <=100: 50,99,100; <=500: 101; <=1000: 800; over: 5000
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	fr := h.Fractions()
	if math.Abs(fr[0]-0.5) > 1e-9 {
		t.Errorf("fraction[0] = %v", fr[0])
	}
	empty := NewFCTHistogram(10)
	for _, f := range empty.Fractions() {
		if f != 0 {
			t.Error("non-zero fraction on empty histogram")
		}
	}
}

func TestDeadlineMissRate(t *testing.T) {
	recs := []FlowRecord{
		rec(1, 50, 0),
		rec(2, 150, 0),
		rec(3, 250, 1),
		{ID: 4, Completed: false},
	}
	if got := DeadlineMissRate(recs, 200*sim.Millisecond); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5 (one late + one incomplete)", got)
	}
	if got := DeadlineMissRate(recs, 10*sim.Millisecond); got != 1 {
		t.Errorf("miss rate = %v, want 1", got)
	}
	if got := DeadlineMissRate(recs, sim.Second); got != 0.25 {
		t.Errorf("miss rate = %v, want 0.25 (incomplete only)", got)
	}
	if got := DeadlineMissRate(nil, sim.Second); got != 0 {
		t.Errorf("empty miss rate = %v", got)
	}
}

func TestLayerReportFailureAccounting(t *testing.T) {
	eng := sim.NewEngine()
	a := netem.NewHost(eng, 1)
	b := netem.NewHost(eng, 2)
	failed := netem.NewLink(eng, a, b, 100_000_000, 0, 10, netem.LayerAgg)
	healthy := netem.NewLink(eng, a, b, 100_000_000, 0, 10, netem.LayerAgg)
	lossy := netem.NewLink(eng, a, b, 100_000_000, 0, 10, netem.LayerEdge)
	lossy.SetLossRate(0.999999, sim.NewRNG(1)) // effectively always drops

	eng.At(10*sim.Millisecond, func() { failed.SetDown(true) })
	eng.At(11*sim.Millisecond, func() {
		for i := 0; i < 3; i++ {
			failed.Enqueue(&netem.Packet{Size: 1000, Flags: netem.FlagData})
			lossy.Enqueue(&netem.Packet{Size: 1000, Flags: netem.FlagData})
		}
		healthy.Enqueue(&netem.Packet{Size: 1000, Flags: netem.FlagData})
	})
	eng.At(30*sim.Millisecond, func() { failed.SetDown(false) })
	eng.At(40*sim.Millisecond, func() {})
	eng.Run()

	rep := LayerReport([]*netem.Link{failed, healthy, lossy}, eng.Now())
	ag := rep[netem.LayerAgg]
	if ag.Blackholed != 3 || ag.BlackholedBytes != 3000 {
		t.Errorf("agg blackholed = %d (%d bytes), want 3 (3000)", ag.Blackholed, ag.BlackholedBytes)
	}
	if ag.DownLinks != 1 {
		t.Errorf("agg down links = %d, want 1 (healthy link never failed)", ag.DownLinks)
	}
	if ag.DownTime != 20*sim.Millisecond {
		t.Errorf("agg down time = %v, want 20ms", ag.DownTime)
	}
	if ag.Drops != 0 {
		t.Errorf("blackholes leaked into queue drops: %d", ag.Drops)
	}
	ed := rep[netem.LayerEdge]
	if ed.RandomDrops != 3 {
		t.Errorf("edge random drops = %d, want 3", ed.RandomDrops)
	}
	if ed.Blackholed != 0 || ed.DownLinks != 0 {
		t.Errorf("injected loss misreported as failure: %+v", ed)
	}
	// A still-open failure interval is included via the elapsed clock.
	stillDown := netem.NewLink(eng, a, b, 100_000_000, 0, 10, netem.LayerCore)
	stillDown.SetDown(true) // at eng.Now() == 40ms
	rep2 := LayerReport([]*netem.Link{stillDown}, eng.Now()+5*sim.Millisecond)
	if got := rep2[netem.LayerCore].DownTime; got != 5*sim.Millisecond {
		t.Errorf("open-interval down time = %v, want 5ms", got)
	}
}
