package metrics

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

func TestNewStreamHistValidation(t *testing.T) {
	for _, p := range []int{-1, 0, MinHistPrecision - 1, MaxHistPrecision + 1, 100} {
		if _, err := NewStreamHist(p); err == nil {
			t.Errorf("precision %d: want error, got nil", p)
		}
	}
	for _, p := range []int{MinHistPrecision, DefaultHistPrecision, MaxHistPrecision} {
		if _, err := NewStreamHist(p); err != nil {
			t.Errorf("precision %d: unexpected error %v", p, err)
		}
	}
}

// TestStreamHistBucketRoundTrip checks the core bucket invariants for
// every precision: bucketBounds inverts bucketIndex, every value lands
// inside its bucket's [lo, hi], and the bucket midpoint is within the
// documented 2^-precision relative error of the value.
func TestStreamHistBucketRoundTrip(t *testing.T) {
	for p := MinHistPrecision; p <= MaxHistPrecision; p++ {
		h, err := NewStreamHist(p)
		if err != nil {
			t.Fatal(err)
		}
		eps := h.RelativeError()
		vals := []int64{1, 2, 3, 7, 100, 1023, 1024, 1025, 4095, 4097,
			1_000_000, 123_456_789, int64(1) << 40, math.MaxInt64 / 3}
		for _, v := range vals {
			idx := h.bucketIndex(v)
			lo, hi := h.bucketBounds(idx)
			if v < lo || v > hi {
				t.Fatalf("p=%d v=%d: bucket %d bounds [%d,%d] exclude the value", p, v, idx, lo, hi)
			}
			mid := lo + (hi-lo)/2
			if relErr := math.Abs(float64(mid-v)) / float64(v); relErr > eps {
				t.Errorf("p=%d v=%d: midpoint %d rel err %.6g > bound %.6g", p, v, mid, relErr, eps)
			}
			// Bounds invert the index exactly: both edges map back.
			if got := h.bucketIndex(lo); got != idx {
				t.Errorf("p=%d bucket %d: lo %d maps to bucket %d", p, idx, lo, got)
			}
			if got := h.bucketIndex(hi); got != idx {
				t.Errorf("p=%d bucket %d: hi %d maps to bucket %d", p, idx, hi, got)
			}
		}
	}
}

func TestStreamHistQuantileEdgeCases(t *testing.T) {
	h, err := NewStreamHist(DefaultHistPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	h.Observe(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("single-value histogram Quantile(%v) = %d, want 42", q, got)
		}
	}
	// Non-positive observations are counted but never bucketed, and read
	// back as zero at the low quantiles.
	h.Observe(0)
	h.Observe(-5)
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) with underflow = %d, want 0", got)
	}
	if got := h.Quantile(1); got != 42 {
		t.Errorf("Quantile(1) = %d, want 42", got)
	}
}

// webSearchMix draws a web-search-like flow-size FCT mix: a large mass
// of sub-millisecond mice, a body of mid-size flows, and a heavy tail
// out to tens of seconds — the distribution shape (DCTCP's web-search
// workload) whose tail percentiles streaming mode must not distort.
func webSearchMix(rng *sim.RNG, n int) []int64 {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		var v int64
		switch {
		case u < 0.5: // mice: 50us..1ms
			v = 50_000 + rng.Int63n(950_000)
		case u < 0.9: // body: 1ms..100ms
			v = 1_000_000 + rng.Int63n(99_000_000)
		default: // elephant tail: 100ms..30s
			v = 100_000_000 + rng.Int63n(29_900_000_000)
		}
		out = append(out, v)
	}
	return out
}

// TestStreamingPercentileError is the documented accuracy bound:
// for each queried quantile q, the streaming estimate must be within
// RelativeError of the bracketing exact order statistics
// x[floor(q*(n-1))] and x[ceil(q*(n-1))].
func TestStreamingPercentileError(t *testing.T) {
	for _, prec := range []int{6, DefaultHistPrecision, 14} {
		h, err := NewStreamHist(prec)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(7)
		vals := webSearchMix(rng, 20_000)
		for _, v := range vals {
			h.Observe(v)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		eps := h.RelativeError()
		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
			got := float64(h.Quantile(q))
			pos := q * float64(len(sorted)-1)
			lo := float64(sorted[int(math.Floor(pos))])
			hi := float64(sorted[int(math.Ceil(pos))])
			if got >= lo*(1-eps) && got <= hi*(1+eps) {
				continue
			}
			t.Errorf("prec=%d q=%v: estimate %.0f outside [%0.f, %.0f] +/- %.4g%%",
				prec, q, got, lo, hi, eps*100)
		}
	}
}

func TestStreamingSummaryMatchesSummarize(t *testing.T) {
	rng := sim.NewRNG(11)
	deadline := 200 * sim.Millisecond
	s, err := NewStreamingSummary(DefaultHistPrecision, deadline)
	if err != nil {
		t.Fatal(err)
	}
	var recs []FlowRecord
	for i := 0; i < 5_000; i++ {
		r := FlowRecord{ID: uint64(i), Completed: true, Start: 0}
		r.End = sim.Time(webSearchMix(rng, 1)[0])
		if rng.Float64() < 0.05 {
			r.Timeouts = 1
		}
		if rng.Float64() < 0.02 {
			r.Completed = false
			r.End = 0
		}
		recs = append(recs, r)
		s.Observe(r)
	}
	exact := Summarize(recs)
	got := s.Summary()

	// Counts and moments are exact, not approximate.
	if got.Count != exact.Count || got.Incomplete != exact.Incomplete || got.WithRTO != exact.WithRTO {
		t.Errorf("counts diverge: streaming %+v exact %+v", got, exact)
	}
	if math.Abs(got.MeanMs-exact.MeanMs) > 1e-6*exact.MeanMs {
		t.Errorf("mean: streaming %v exact %v", got.MeanMs, exact.MeanMs)
	}
	if math.Abs(got.StdMs-exact.StdMs) > 1e-5*exact.StdMs {
		t.Errorf("std: streaming %v exact %v", got.StdMs, exact.StdMs)
	}
	if got.MinMs != exact.MinMs || got.MaxMs != exact.MaxMs {
		t.Errorf("min/max: streaming %v/%v exact %v/%v", got.MinMs, got.MaxMs, exact.MinMs, exact.MaxMs)
	}
	// Percentiles: Summarize interpolates between order statistics while
	// the histogram returns a bucket midpoint of one of them, so the
	// documented bound is against the bracketing order stats, not the
	// interpolated value.
	var fcts []float64
	for _, r := range recs {
		if r.Completed {
			fcts = append(fcts, r.FCT().Milliseconds())
		}
	}
	sort.Float64s(fcts)
	eps := s.RelativeError()
	for _, pq := range []struct {
		got float64
		q   float64
	}{{got.P50Ms, 0.50}, {got.P95Ms, 0.95}, {got.P99Ms, 0.99}} {
		pos := pq.q * float64(len(fcts)-1)
		lo := fcts[int(math.Floor(pos))]
		hi := fcts[int(math.Ceil(pos))]
		if pq.got < lo*(1-eps)-1e-9 || pq.got > hi*(1+eps)+1e-9 {
			t.Errorf("q=%v: streaming %v outside order-stat bracket [%v, %v] +/- %.4g",
				pq.q, pq.got, lo, hi, eps)
		}
	}
	// Deadline accounting matches the exact computation.
	if want := DeadlineMissRate(recs, deadline); math.Abs(s.MissRate()-want) > 1e-12 {
		t.Errorf("miss rate: streaming %v exact %v", s.MissRate(), want)
	}

}

func TestStreamingSummaryEmptyAndSingle(t *testing.T) {
	s, err := NewStreamingSummary(DefaultHistPrecision, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum := s.Summary(); sum != (Summary{}) {
		t.Errorf("empty summary = %+v", sum)
	}
	if s.MissRate() != 0 {
		t.Errorf("empty miss rate = %v", s.MissRate())
	}
	s.Observe(FlowRecord{Completed: true, Start: 0, End: 10 * sim.Millisecond})
	sum := s.Summary()
	if sum.Count != 1 || sum.MinMs != sum.MaxMs || sum.MinMs != 10 {
		t.Errorf("single-flow summary = %+v", sum)
	}
	for _, p := range []float64{sum.P50Ms, sum.P95Ms, sum.P99Ms} {
		if math.Abs(p-10) > 10*0.001 { // default precision: 2^-10 < 0.1%
			t.Errorf("single-flow percentile %v not ~10ms", p)
		}
	}
	if sum.StdMs != 0 {
		t.Errorf("single-flow std = %v", sum.StdMs)
	}
}
