package main

import (
	"math"
	"sort"
)

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance check computes spreads with. Fewer than two values have no
// spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// metricDef is one end-to-end metric of the contract in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// The bounds are shares of the parent's median by which a metric may get
// worse. They come from the spreads of ten different seeds measured on the
// defining box (README, "Measured baseline"): the acceptance check holds
// that spread against the bound, so the noisiest workload sets it. For the
// two host-time rates that is paper_k8_2shards (0.18, against 0.03–0.09 on
// the others), which is why they sit at the contract's maximum; counts and
// memory repeat exactly for a given seed and get twice to three times the
// spread the seeds' different traffic gives them.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "realtime_factor", Unit: "sim-s/host-s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_run", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_mb_per_run", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// summary is the distribution of one metric over the runs of one side.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{Median: median(v), Q1: q1, Q3: q3, N: len(v)}
}

func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Verdicts of -compare, one per workload × end-to-end metric.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// verdict compares side B against side A for one metric. worse is B's
// median relative to A's, signed so that positive means worse. Beyond the
// bound it is a regression; when either side's spread is wider than the
// bound the pair cannot tell "unchanged" from a change inside the bound,
// so it is reported unresolved; and a gain needs the medians to differ by
// more than either side's own interquartile spread.
func verdict(m metricDef, a, b summary) (string, float64) {
	if a.Median == 0 {
		return verdictUnresolved, 0
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return verdictRegressed, worse
	case a.spread() > m.Bound || b.spread() > m.Bound:
		return verdictUnresolved, worse
	case -worse > a.spread() && -worse > b.spread():
		return verdictImproved, worse
	default:
		return verdictUnchanged, worse
	}
}
