// Package metrics collects and summarises the measurements the paper
// reports: per-flow completion times (mean, standard deviation,
// percentiles, the fraction of connections suffering at least one RTO),
// per-layer packet loss rates, long-flow throughput and link utilisation.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/netem"
	"repro/internal/sim"
)

// FlowClass distinguishes the paper's two traffic classes.
type FlowClass int

// Flow classes.
const (
	ShortFlow FlowClass = iota // latency-sensitive, 70 KB in the paper
	LongFlow                   // bandwidth-hungry background flows
)

// String names the class.
func (c FlowClass) String() string {
	if c == ShortFlow {
		return "short"
	}
	return "long"
}

// FlowRecord is the outcome of one flow.
type FlowRecord struct {
	ID        uint64
	Src, Dst  netem.NodeID
	Class     FlowClass
	Proto     string
	Size      int64    // bytes (-1 for unbounded long flows)
	Start     sim.Time // when the flow was initiated
	End       sim.Time // receiver-side completion (0 if incomplete)
	Completed bool

	Delivered int64 // data bytes received (for throughput of long flows)

	Timeouts        int64 // RTOs experienced by the connection
	FastRetransmits int64
	Retransmissions int64
	SegmentsSent    int64
}

// FCT returns the flow completion time (0 for incomplete flows).
func (r FlowRecord) FCT() sim.Time {
	if !r.Completed {
		return 0
	}
	return r.End - r.Start
}

// ThroughputMbps returns the flow's goodput in Mb/s over [Start, until].
func (r FlowRecord) ThroughputMbps(until sim.Time) float64 {
	d := until - r.Start
	if d <= 0 {
		return 0
	}
	return float64(r.Delivered) * 8 / d.Seconds() / 1e6
}

// Summary are the aggregate FCT statistics the paper quotes (e.g. "116
// milliseconds (standard deviation is 101)" for MMPTCP vs "126 (425)"
// for MPTCP).
type Summary struct {
	Count      int     // completed flows
	Incomplete int     // flows that never finished
	MeanMs     float64 // mean FCT, milliseconds
	StdMs      float64 // standard deviation of FCT
	MinMs      float64
	P50Ms      float64
	P95Ms      float64
	P99Ms      float64
	MaxMs      float64
	// WithRTO is the number of completed flows that experienced at
	// least one retransmission timeout; Figure 1(a)'s growing standard
	// deviation is driven by this count.
	WithRTO int
}

// DeadlineMissRate returns the fraction of flows that failed to finish
// within the deadline (incomplete flows count as misses). The paper's
// §1 motivation: "short TCP flows missing their deadlines mainly due to
// retransmission timeouts", and "even a single RTO may result in flow
// deadline violation".
func DeadlineMissRate(recs []FlowRecord, deadline sim.Time) float64 {
	if len(recs) == 0 {
		return 0
	}
	missed := 0
	for _, r := range recs {
		if !r.Completed || r.FCT() > deadline {
			missed++
		}
	}
	return float64(missed) / float64(len(recs))
}

// Summarize computes FCT statistics over the completed flows in recs.
func Summarize(recs []FlowRecord) Summary {
	var s Summary
	var fcts []float64
	for _, r := range recs {
		if !r.Completed {
			s.Incomplete++
			continue
		}
		s.Count++
		fcts = append(fcts, r.FCT().Milliseconds())
		if r.Timeouts > 0 {
			s.WithRTO++
		}
	}
	if len(fcts) == 0 {
		return s
	}
	sort.Float64s(fcts)
	var sum float64
	for _, v := range fcts {
		sum += v
	}
	s.MeanMs = sum / float64(len(fcts))
	var sq float64
	for _, v := range fcts {
		d := v - s.MeanMs
		sq += d * d
	}
	s.StdMs = math.Sqrt(sq / float64(len(fcts)))
	s.MinMs = fcts[0]
	s.MaxMs = fcts[len(fcts)-1]
	s.P50Ms = percentile(fcts, 0.50)
	s.P95Ms = percentile(fcts, 0.95)
	s.P99Ms = percentile(fcts, 0.99)
	return s
}

// percentile interpolates the p-quantile of sorted values. Edge cases
// are defined rather than surprising: an empty slice yields 0, a single
// element is every quantile of itself, and p outside [0, 1] (or NaN) is
// clamped to the nearest valid quantile.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p < 0 || math.IsNaN(p) {
		p = 0
	} else if p > 1 {
		p = 1
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fms std=%.1fms p50=%.1f p95=%.1f p99=%.1f max=%.1f rto-flows=%d incomplete=%d",
		s.Count, s.MeanMs, s.StdMs, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs, s.WithRTO, s.Incomplete)
}

// Snapshot is one periodic sample of a run's cumulative state — the
// rolling Results time series that reports behaviour over time
// (percentile trajectories, drop and routing counters). All fields are
// cumulative since the start of the run, so deltas between consecutive
// snapshots isolate each interval.
type Snapshot struct {
	At sim.Time // virtual time of the sample

	// Workload progress.
	Spawned int // short flows spawned so far
	// Short summarises the short flows finished so far: Summarize over
	// their final records, the same statistics as the run's final
	// short-flow summary.
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

// RoutingStats reports the routing control plane's work during a run:
// which repair mode was active and, in global mode, how often the tables
// were rebuilt, when routing last converged, and how many (switch,
// destination) entries diverged from the structural fast path at run
// end. A local-mode (or healthy) run reports zero recomputes.
//
// The incremental-recompute counters make the control plane's scoping
// observable: DstRecomputed destinations had their tables reconciled,
// DstSkipped were proven untouched by the transition batch and skipped,
// and BFSRuns reverse breadth-first passes were actually executed
// (destinations sharing a live-attachment signature share one, and
// cached passes survive across recomputes). A full (non-incremental)
// rebuild would show DstSkipped == 0 and DstRecomputed == recomputes x
// hosts.
//
// The convergence fields describe how recomputed tables reached the
// switches. Under the default atomic model every switch flips at
// recompute time and they are all zero. Under staggered convergence
// Flips counts per-switch table flips, FirstFlip/LastFlip bracket the
// most recent transition's flip schedule (its convergence spread),
// TransientTime accumulates how long at least one switch served a stale
// table, and the window damage is split out: TransientNoRoute
// (blackholes bred by the disagreement rather than the failure itself)
// and StaleLookups (lookups served by a not-yet-flipped table); the
// micro-loop deaths live in Results.LoopDrops next to HopDrops, the
// counter they are distinguished from. Damped is always zero: the
// control plane recomputes after every transition. The field stays until
// the benchmark's Results fingerprints are next re-recorded.
type RoutingStats struct {
	Mode            string
	Convergence     string
	Recomputes      int
	LastConvergence sim.Time
	Overrides       int
	DstRecomputed   int
	DstSkipped      int
	BFSRuns         int

	Flips            int
	FirstFlip        sim.Time
	LastFlip         sim.Time
	TransientTime    sim.Time
	TransientNoRoute int64
	StaleLookups     int64
	Damped           int
}

// ShardStats is the parallel engine's synchronization accounting — the
// Results "Shard" block. On a sequential (direct) run only Shards is
// set (to 1) and Mode is empty; on a partitioned run the counters
// describe the coordinator's barrier work and are deterministic per
// (Seed, Shards).
type ShardStats struct {
	// Shards is the engine count the run executed on (1 = sequential).
	Shards int
	// Mode is the lookahead policy: "conservative" on a partitioned run,
	// empty on a sequential one, which has no synchronization window.
	Mode string
	// LookaheadNs is the conservative window bound: the minimum
	// propagation delay across shard-boundary links, in nanoseconds.
	LookaheadNs int64
	// Barriers counts coordinator barriers (every flush + window/control
	// decision); ControlTurns of them ran the control plane, Windows
	// dispatched a parallel window.
	Barriers     uint64
	ControlTurns uint64
	Windows      uint64
	// ElidedWakeups counts shard-window slots skipped without a channel
	// round-trip (the shard had nothing below its window edge).
	ElidedWakeups uint64
	// WidenedWindows is always zero: no window exceeds the conservative
	// bound. The field stays until the benchmark's Results fingerprints
	// are next re-recorded.
	WidenedWindows uint64
	// MeanWindowNs is the mean parallel-window width in nanoseconds.
	MeanWindowNs float64
}

// LayerStats aggregates link counters at one topology layer.
type LayerStats struct {
	Links       int
	TxPackets   int64
	Drops       int64   // queue-overflow drops
	DropBytes   int64   // bytes lost to queue overflow
	LossRate    float64 // drops / (drops + enqueued)
	Utilisation float64 // mean busy fraction across links
	MaxQueue    int
	AvgQueue    float64 // time-averaged occupancy, packets, mean across links

	// Failure accounting (the faults subsystem's view of the layer).
	// Blackholed counts packets swallowed by down links — new arrivals,
	// drained queues and in-flight deliveries suppressed by a failure.
	Blackholed      int64
	BlackholedBytes int64
	// RandomDrops counts packets lost to injected random-loss
	// degradation, distinct from queue overflow.
	RandomDrops int64
	// DownTime is the summed time-in-failure across the layer's links,
	// and DownLinks how many of them were down at least once.
	DownTime  sim.Time
	DownLinks int
}

// LayerReport computes per-layer loss and utilisation over the links,
// for an observation window of length elapsed. The paper's §3 compares
// "the average loss rate at the core and aggregation layers".
func LayerReport(links []*netem.Link, elapsed sim.Time) map[netem.Layer]LayerStats {
	out := make(map[netem.Layer]LayerStats)
	type acc struct {
		enq, drops, dropB, tx  int64
		blackholed, blackholeB int64
		randomDrops            int64
		util, avgQ             float64
		links, downLinks       int
		maxQ                   int
		downTime               sim.Time
	}
	accs := make(map[netem.Layer]*acc)
	for _, l := range links {
		a := accs[l.Layer()]
		if a == nil {
			a = &acc{}
			accs[l.Layer()] = a
		}
		a.links++
		a.enq += l.Stats.Enqueued
		a.drops += l.Stats.Drops
		a.dropB += l.Stats.DropBytes
		a.tx += l.Stats.TxPackets
		a.blackholed += l.Stats.Blackholed
		a.blackholeB += l.Stats.BlackholedBytes
		a.randomDrops += l.Stats.RandomDrops
		if td := l.TimeDown(elapsed); td > 0 {
			a.downTime += td
			a.downLinks++
		}
		a.util += l.Stats.Utilisation(elapsed)
		a.avgQ += l.Stats.AvgQueue(elapsed)
		if l.Stats.MaxQueue > a.maxQ {
			a.maxQ = l.Stats.MaxQueue
		}
	}
	for layer, a := range accs {
		ls := LayerStats{
			Links:           a.links,
			TxPackets:       a.tx,
			Drops:           a.drops,
			DropBytes:       a.dropB,
			MaxQueue:        a.maxQ,
			Blackholed:      a.blackholed,
			BlackholedBytes: a.blackholeB,
			RandomDrops:     a.randomDrops,
			DownTime:        a.downTime,
			DownLinks:       a.downLinks,
		}
		if offered := a.enq + a.drops; offered > 0 {
			ls.LossRate = float64(a.drops) / float64(offered)
		}
		if a.links > 0 {
			ls.Utilisation = a.util / float64(a.links)
			ls.AvgQueue = a.avgQ / float64(a.links)
		}
		out[layer] = ls
	}
	return out
}

// Histogram buckets FCTs for a text rendering of the paper's scatter
// plots (Figures 1(b) and 1(c)). Bounds must be ascending; values above
// the last bound land in a dedicated overflow bucket, values below zero
// (or NaN milliseconds) in Underflow — outside-the-bounds observations
// are always defined and never silently skew Fractions.
type Histogram struct {
	BoundsMs []float64 // upper bounds; one extra overflow bucket
	Counts   []int
	// Underflow counts observations that precede every bucket: negative
	// FCTs (a malformed record) and NaNs. They are excluded from
	// Fractions — the in-range shares still describe the valid mass —
	// but visible here so a skewed input cannot hide.
	Underflow int
}

// NewFCTHistogram builds a histogram with the given millisecond bounds,
// sorted ascending (the bucket semantics require it; sorting here makes
// caller-supplied literals order-independent).
func NewFCTHistogram(boundsMs ...float64) *Histogram {
	sort.Float64s(boundsMs)
	return &Histogram{BoundsMs: boundsMs, Counts: make([]int, len(boundsMs)+1)}
}

// Observe adds one completed flow. Out-of-range values are defined:
// negative and NaN durations count in Underflow, anything above the last
// bound in the overflow bucket.
func (h *Histogram) Observe(fct sim.Time) {
	ms := fct.Milliseconds()
	if ms < 0 || math.IsNaN(ms) {
		h.Underflow++
		return
	}
	for i, b := range h.BoundsMs {
		if ms <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// Fractions returns each bucket's share of the in-range total (underflow
// excluded; see Underflow). An empty histogram returns all zeros.
func (h *Histogram) Fractions() []float64 {
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	out := make([]float64, len(h.Counts))
	if total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}
