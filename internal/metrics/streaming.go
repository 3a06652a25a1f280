package metrics

// Streaming FCT accumulation: HDR-style log-bucketed histograms whose
// memory is O(1) in flow count, so a million-flow sweep replicate costs
// the same few hundred kilobytes as a thousand-flow one. The exact
// per-flow record slice (Summarize over []FlowRecord) stays available as
// the oracle; StreamingSummary is the scale path, with a documented,
// tested bound on percentile error and exact mean/stddev/min/max/counts.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
)

// Histogram precision limits. Precision is the number of sub-bucket bits
// per power-of-two range: each recorded value lands in a bucket whose
// relative width is at most 2^-(precision-1), and quantile queries return
// the bucket midpoint, so the relative error against the underlying order
// statistic is at most 2^-precision.
const (
	// DefaultHistPrecision (10 bits, 1024 sub-buckets per octave) bounds
	// quantile error at 2^-10 < 0.1% — far below seed-to-seed variance —
	// while a full-range nanosecond histogram stays under ~250 KB.
	DefaultHistPrecision = 10
	// MaxHistPrecision caps the sub-bucket count: 16 bits is a 0.0015%
	// error bound and ~25 MB worst-case, past which exact mode is
	// strictly better.
	MaxHistPrecision = 16
	// MinHistPrecision keeps at least two sub-buckets per octave so the
	// error bound stays below 100%.
	MinHistPrecision = 1
)

// StreamHist is a log-bucketed streaming histogram of non-negative int64
// values (here: FCTs in nanoseconds). Values below 2^precision are
// recorded exactly (one bucket per value); above, buckets widen
// geometrically so that bucket width / bucket value <= 2^-(precision-1).
// Memory is O(log(max value) * 2^precision), independent of how many
// values are observed. The zero value is not ready; use NewStreamHist.
type StreamHist struct {
	precision uint
	counts    []int64 // grown lazily to the highest bucket observed
	total     int64
	underflow int64 // observations <= 0 (defined, counted, never bucketed)
}

// NewStreamHist returns a histogram with the given sub-bucket precision
// in bits. Precision outside [MinHistPrecision, MaxHistPrecision] errors:
// a zero or negative precision is almost always a forgotten default —
// callers wanting the default pass DefaultHistPrecision explicitly.
func NewStreamHist(precision int) (*StreamHist, error) {
	if precision < MinHistPrecision || precision > MaxHistPrecision {
		return nil, fmt.Errorf("metrics: histogram precision %d outside [%d, %d]",
			precision, MinHistPrecision, MaxHistPrecision)
	}
	return &StreamHist{precision: uint(precision)}, nil
}

// RelativeError returns the documented bound on quantile error: a value
// returned by Quantile is within this fraction of the order statistic at
// the queried rank.
func (h *StreamHist) RelativeError() float64 {
	return 1 / float64(uint64(1)<<h.precision)
}

// bucketIndex maps a positive value to its bucket. Values below
// 2^precision map to themselves (exact); above, the value is normalised
// to precision significant bits.
func (h *StreamHist) bucketIndex(v int64) int {
	u := uint64(v)
	sub := uint64(1) << h.precision
	if u < sub {
		return int(u)
	}
	exp := bits.Len64(u) - int(h.precision) // doublings past the exact region, >= 1
	mantissa := u >> uint(exp)              // in [sub/2, sub)
	return int(sub) + (exp-1)*int(sub)/2 + int(mantissa) - int(sub)/2
}

// bucketBounds inverts bucketIndex: the inclusive [lo, hi] value range of
// a bucket.
func (h *StreamHist) bucketBounds(idx int) (lo, hi int64) {
	sub := int64(1) << h.precision
	if int64(idx) < sub {
		return int64(idx), int64(idx)
	}
	half := int(sub) >> 1
	exp := (idx - int(sub)) / half
	mantissa := int64(idx-int(sub)-exp*half) + sub/2
	lo = mantissa << uint(exp+1)
	hi = lo + (int64(1) << uint(exp+1)) - 1
	return lo, hi
}

// Observe records one value. Non-positive values are defined: they are
// counted in an underflow bucket that Quantile treats as zero, so a
// degenerate input can never panic or silently skew the distribution of
// the positive mass.
func (h *StreamHist) Observe(v int64) {
	h.total++
	if v <= 0 {
		h.underflow++
		return
	}
	idx := h.bucketIndex(v)
	if idx >= len(h.counts) {
		grown := make([]int64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
}

// Count returns the number of observations, including underflow.
func (h *StreamHist) Count() int64 { return h.total }

// Quantile returns an estimate of the q-quantile (q in [0, 1]) of the
// observed values: the midpoint of the bucket containing the order
// statistic of rank round(q * (n-1)). The estimate is within
// RelativeError of that order statistic. An empty histogram returns 0;
// q outside [0, 1] is clamped.
func (h *StreamHist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Round(q * float64(h.total-1))) // 0-based
	if rank < h.underflow {
		return 0
	}
	cum := h.underflow
	for idx, c := range h.counts {
		cum += c
		if cum > rank {
			lo, hi := h.bucketBounds(idx)
			return lo + (hi-lo)/2
		}
	}
	// Unreachable while counts are consistent with total; be defined.
	return 0
}

// Buckets returns the memory footprint in buckets (for tests and the
// bench suite's O(1)-memory claim).
func (h *StreamHist) Buckets() int { return len(h.counts) }

// StreamingSummary accumulates the same Summary Summarize computes over
// a record slice, in O(1) memory per flow: count, incomplete and
// RTO-flow tallies, exact mean/stddev (running sums), exact min/max, and
// log-bucketed percentiles. It is the streaming metrics mode's
// accumulator; the exact mode stays the oracle against which its
// percentile error bound is tested.
type StreamingSummary struct {
	hist       *StreamHist
	count      int
	incomplete int
	withRTO    int
	missed     int // deadline misses (incomplete flows count)
	deadline   sim.Time
	sumMs      float64
	sumSqMs    float64
	minNs      int64
	maxNs      int64
}

// NewStreamingSummary returns an accumulator with the given histogram
// precision. Flows observed after their FCT exceeds deadline (or that
// never complete) count toward MissRate; a zero deadline disables miss
// accounting.
func NewStreamingSummary(precision int, deadline sim.Time) (*StreamingSummary, error) {
	h, err := NewStreamHist(precision)
	if err != nil {
		return nil, err
	}
	return &StreamingSummary{hist: h, deadline: deadline, minNs: math.MaxInt64}, nil
}

// Observe records one finished flow, exactly as Summarize would consume
// its record: incomplete flows tally Incomplete (and a deadline miss),
// completed flows contribute their FCT and RTO flag.
func (s *StreamingSummary) Observe(r FlowRecord) {
	if !r.Completed {
		s.incomplete++
		if s.deadline > 0 {
			s.missed++
		}
		return
	}
	fct := int64(r.FCT())
	s.count++
	if r.Timeouts > 0 {
		s.withRTO++
	}
	if s.deadline > 0 && r.FCT() > s.deadline {
		s.missed++
	}
	ms := sim.Time(fct).Milliseconds()
	s.sumMs += ms
	s.sumSqMs += ms * ms
	if fct < s.minNs {
		s.minNs = fct
	}
	if fct > s.maxNs {
		s.maxNs = fct
	}
	s.hist.Observe(fct)
}

// RelativeError returns the documented percentile error bound (the
// underlying histogram's).
func (s *StreamingSummary) RelativeError() float64 { return s.hist.RelativeError() }

// MissRate returns the fraction of observed flows that missed the
// deadline (DeadlineMissRate's streaming twin). Zero when no deadline
// was configured or nothing was observed.
func (s *StreamingSummary) MissRate() float64 {
	n := s.count + s.incomplete
	if s.deadline == 0 || n == 0 {
		return 0
	}
	return float64(s.missed) / float64(n)
}

// Summary renders the accumulated statistics. Count, Incomplete,
// WithRTO, MeanMs, StdMs, MinMs and MaxMs are exact; the percentiles
// carry the histogram's relative error bound.
func (s *StreamingSummary) Summary() Summary {
	out := Summary{Count: s.count, Incomplete: s.incomplete, WithRTO: s.withRTO}
	if s.count == 0 {
		return out
	}
	n := float64(s.count)
	out.MeanMs = s.sumMs / n
	variance := s.sumSqMs/n - out.MeanMs*out.MeanMs
	if variance > 0 {
		out.StdMs = math.Sqrt(variance)
	}
	out.MinMs = sim.Time(s.minNs).Milliseconds()
	out.MaxMs = sim.Time(s.maxNs).Milliseconds()
	out.P50Ms = sim.Time(s.hist.Quantile(0.50)).Milliseconds()
	out.P95Ms = sim.Time(s.hist.Quantile(0.95)).Milliseconds()
	out.P99Ms = sim.Time(s.hist.Quantile(0.99)).Milliseconds()
	return out
}

// Snapshot is one periodic sample of a run's cumulative state — the
// rolling Results time series that lets a million-flow steady-state run
// report behaviour over time (percentile trajectories, drop and routing
// counters) without retaining per-flow records. All fields are
// cumulative since the start of the run, so deltas between consecutive
// snapshots isolate each interval.
type Snapshot struct {
	At sim.Time // virtual time of the sample

	// Workload progress.
	Spawned int // short flows spawned so far
	// Short summarises the short flows finished so far. Percentiles come
	// from the streaming histogram (error bound as documented); mean,
	// stddev, min, max and the counts are exact.
	Short Summary

	// Data-plane damage counters (network-wide cumulative).
	Blackholed   int64
	NoRouteDrops int64
	HopDrops     int64
	LoopDrops    int64
	CrashDrops   int64

	// Control-plane work (zero under local repair).
	Recomputes int
	Overrides  int
}
