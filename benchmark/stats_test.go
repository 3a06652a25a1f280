package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
		med    float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25, 5.5}, // order must not matter
		{[]float64{2.1, 2.0, 2.3}, 2.0, 2.3, 2.1},
		{[]float64{1, 3}, 0.5, 3.5, 2},
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
		if m := median(c.v); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.v, m, c.med)
		}
	}
	if s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(); !near(s, 1.0) {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "realtime_factor", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 3} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.90, Q3: m * 1.10, N: 3} }
	for _, c := range []struct {
		name string
		m    metricDef
		a, b summary
		want string
	}{
		{"slower beyond the bound", lower, tight(10), tight(11.5), verdictRegressed},
		{"slower inside the bound", lower, tight(10), tight(10.5), verdictUnchanged},
		{"exactly at the bound is not beyond it", lower, tight(10), tight(11), verdictUnchanged},
		{"faster by more than A's spread", lower, tight(10), tight(9), verdictImproved},
		{"faster by less than A's spread", lower, tight(10), tight(9.9), verdictUnchanged},
		{"A too noisy to tell", lower, wide(10), tight(10.2), verdictUnresolved},
		{"B too noisy to tell", lower, tight(10), wide(9.5), verdictUnresolved},
		{"noisy but beyond the bound still regresses", lower, wide(10), wide(12), verdictRegressed},
		{"higher is better: lower regresses", higher, tight(0.2), tight(0.17), verdictRegressed},
		{"higher is better: higher improves", higher, tight(0.2), tight(0.23), verdictImproved},
		{"higher is better: a little lower is unchanged", higher, tight(0.2), tight(0.195), verdictUnchanged},
		{"no reference value", lower, summary{}, tight(1), verdictUnresolved},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	side := func(wall float64, failed int, fp, only string) report {
		wr := workloadReport{Attempted: 10, Failed: failed, Fingerprint: fp, EndToEnd: map[string]summary{}}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = summary{Median: 5, Q1: 4.99, Q3: 5.01, N: 3}
		}
		wr.EndToEnd["wall_s"] = summary{Median: wall, Q1: wall * 0.99, Q3: wall * 1.01, N: 3}
		return report{Workloads: map[string]workloadReport{"paper_k8": wr, "only_here_" + only: wr}}
	}
	var out bytes.Buffer
	if regressed, unresolved := compareReports(&out, side(2, 0, "aa", "a"), side(2.01, 0, "aa", "b")); regressed != 0 || unresolved != 0 {
		t.Errorf("A/A: %d regressed, %d unresolved\n%s", regressed, unresolved, out.String())
	}
	if strings.Contains(out.String(), "only_here") {
		t.Errorf("a workload present on one side only was compared:\n%s", out.String())
	}
	out.Reset()
	if regressed, _ := compareReports(&out, side(2, 0, "aa", "a"), side(2.8, 0, "aa", "b")); regressed != 1 {
		t.Errorf("40%% slower: %d regressed, want 1\n%s", regressed, out.String())
	}
	out.Reset()
	regressed, _ := compareReports(&out, side(2, 0, "aa", "a"), side(2, 1, "bb", "b"))
	if regressed != 1 {
		t.Errorf("a new failure: %d regressed, want 1\n%s", regressed, out.String())
	}
	if !strings.Contains(out.String(), "the simulated results differ") {
		t.Errorf("a changed fingerprint was not reported:\n%s", out.String())
	}
}

func TestCorrect(t *testing.T) {
	// A machine running 20% slow shows it in the kernel and in the call alike.
	ref := newReference(0.01)
	if got := ref.correct(2.4, ref.nominal*1.2, ref.nominal*1.2); !near(got, 2.0) {
		t.Errorf("correct = %v, want 2", got)
	}
}
