// Package core implements MMPTCP, the paper's contribution: a hybrid
// data-centre transport that runs in two phases.
//
// Phase one — Packet Scatter (PS) — transmits under a single TCP
// congestion window while randomising the source port of every data
// packet, so hash-based ECMP sprays the flow's packets across all
// available paths. Latency-sensitive short flows are expected to finish
// entirely inside this phase. Out-of-order arrivals are rendered
// harmless by raising the duplicate-ACK threshold using topology
// knowledge (the number of equal-cost paths between the endpoints,
// derivable from FatTree addressing — the paper's proposal (1) in §2).
//
// Phase two begins when a switching strategy fires: the connection opens
// standard MPTCP subflows (with LIA coupled congestion control) for the
// remaining data and stops assigning new data to the PS flow, which
// "is deactivated when its window gets emptied" — it drains and
// retransmits what it was already responsible for, then falls silent.
// Two strategies from §2 are implemented: switching after a configured
// data volume, and switching at the first congestion event.
package core

import (
	"fmt"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Strategy selects when MMPTCP leaves the packet-scatter phase.
type Strategy int

const (
	// SwitchDataVolume switches once SwitchBytes of data have been
	// assigned to the PS flow (§2 "Data Volume"). The paper's early
	// evaluation found this does not hurt long-flow throughput because
	// the MPTCP subflows wrap up access-link capacity within a few RTTs.
	SwitchDataVolume Strategy = iota
	// SwitchCongestionEvent switches when congestion is first inferred,
	// i.e. at the first fast retransmission or RTO (§2 "Congestion
	// Event").
	SwitchCongestionEvent
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case SwitchDataVolume:
		return "data-volume"
	case SwitchCongestionEvent:
		return "congestion-event"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ThresholdMode selects how the PS phase obtains its reordering-tolerant
// duplicate-ACK threshold — the paper's §2 approaches (1) and (2).
type ThresholdMode int

const (
	// ThresholdTopology derives the threshold from the number of
	// equal-cost paths between the endpoints, computable from FatTree
	// addressing (approach 1).
	ThresholdTopology ThresholdMode = iota
	// ThresholdAdaptive starts at the standard 3 and raises the
	// threshold on every DSACK-style spurious-retransmission signal,
	// like RR-TCP (approach 2).
	ThresholdAdaptive
	// ThresholdStandard keeps the plain-TCP threshold of 3 — the
	// strawman the paper's §2 mechanisms exist to beat (scattering
	// with threshold 3 misreads reordering as loss).
	ThresholdStandard
)

// String names the mode.
func (m ThresholdMode) String() string {
	switch m {
	case ThresholdTopology:
		return "topology"
	case ThresholdAdaptive:
		return "adaptive"
	case ThresholdStandard:
		return "standard"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config parametrises MMPTCP connections. Dial takes it as complete: no
// field is defaulted on the way in (DefaultConfig is the paper's setting).
type Config struct {
	// MPTCP is the connection the phase switch opens, handed to
	// mptcp.Dial unchanged. Its TCP parameters also govern the
	// packet-scatter sender. Re-dialing (DeadRTOs and its knobs) applies
	// to the MPTCP phase only: the PS phase's per-packet scatter ports
	// already re-hash every transmission across the ECMP paths.
	MPTCP mptcp.Config

	Strategy Strategy
	// SwitchBytes is the data-volume threshold; the paper's setting is
	// 100 KB, so its 70 KB short flows complete inside the PS phase.
	SwitchBytes int64

	// Threshold selects between the topology-derived and the adaptive
	// (RR-TCP-like) duplicate-ACK threshold for the PS phase.
	Threshold ThresholdMode

	// DeferPhaseSwitch holds the packet-scatter→subflow switch open
	// while the routing control plane reports an unconverged state
	// (Options.Observer), so fresh subflows are not pinned onto tables
	// that are mid-flip. The switch is forced MaxDefer after the first
	// postponement regardless, bounding how long a flow can stay in PS.
	DeferPhaseSwitch bool
}

// MaxDefer bounds a deferred phase switch: it is forced this long after
// the first postponement even under sustained churn.
const MaxDefer = 50 * sim.Millisecond

// topologyDupThresh is the PS-phase duplicate-ACK threshold for paths
// equal-cost paths between the endpoints: with paths ways for packets to
// overtake each other, fewer than that many duplicate ACKs is not
// evidence of loss. It never drops below the standard 3, which the MPTCP
// phase always uses.
func topologyDupThresh(paths int) int { return max(3, paths) }

// ConvergenceObserver is the routing-state signal the phase switch
// consults; *routing.ControlPlane satisfies it. Declared locally so the
// transport does not import the control plane. Observing never schedules
// events or mutates state.
type ConvergenceObserver interface {
	// ConvergenceOpen reports that a convergence episode is in
	// progress: a recompute is pending or scheduled, or staggered
	// per-switch flips have not all landed.
	ConvergenceOpen() bool
}

// Options identifies a connection's endpoints.
type Options struct {
	SrcHost *netem.Host
	DstHost *netem.Host
	FlowID  uint64
	Size    int64 // total bytes; -1 for unbounded background flows
	// PathCount is the number of equal-cost paths between the hosts,
	// from the topology's oracle (FatTree addressing in the paper).
	PathCount int
	RNG       *sim.RNG // required: port randomisation (the destination port is 80)
	// Recorder, when non-nil, traces both phases (PS sender, MPTCP
	// subflows) and the phase-switch instant.
	Recorder *trace.Recorder
	// Observer, when non-nil with Config.DeferPhaseSwitch, supplies the
	// open-convergence signal the phase switch waits out.
	Observer ConvergenceObserver
}

// Conn is an MMPTCP connection: a packet-scatter sender, a shared
// receiver, and an MPTCP connection created at phase switch.
type Conn struct {
	eng *sim.Engine // the source host's engine: sender-side scheduling
	cfg Config
	opt Options

	rcv   *tcp.Receiver
	ps    *tcp.Sender
	psSrc psSource
	mp    *mptcp.Connection // nil until the phase switch

	switched   bool
	switchedAt sim.Time

	// Phase-switch deferral state (DeferPhaseSwitch): deferring marks
	// an open deferral episode anchored at deferStart, deferrals counts
	// postponements, pollArmed dedups the re-check events.
	deferring  bool
	deferStart sim.Time
	deferrals  int
	pollArmed  bool

	psDone bool
	mpDone bool
	closed bool

	// OnAllAcked fires once when both phases have delivered and had
	// acknowledged all of their data.
	OnAllAcked func()
	// OnSwitch fires when the connection enters the MPTCP phase.
	OnSwitch func()
}

// Dial creates the connection (idle until Start). cfg is taken as
// complete (see Config). Each endpoint schedules on its own host's
// engine: the receiver on the destination's, the senders on the source's.
func Dial(cfg Config, opt Options) *Conn {
	if opt.RNG == nil {
		panic("core: Options.RNG is required")
	}
	c := &Conn{eng: opt.SrcHost.Engine(), cfg: cfg, opt: opt}
	tcpCfg := cfg.MPTCP.TCP
	c.rcv = tcp.NewReceiver(tcpCfg, opt.DstHost, opt.FlowID, opt.Size)

	cap := int64(-1)
	if cfg.Strategy == SwitchDataVolume {
		cap = cfg.SwitchBytes
	}
	c.psSrc = psSource{size: opt.Size, cap: cap}

	rng := opt.RNG
	// On multi-homed hosts the scatter phase sprays across every NIC
	// too: the paper's roadmap argues access-layer path diversity
	// raises burst tolerance.
	var ifacePicker func() int
	if n := len(opt.SrcHost.Uplinks()); n > 1 {
		ifacePicker = func() int { return rng.Intn(n) }
	}
	psOpts := tcp.SenderOptions{
		Host:    opt.SrcHost,
		Dst:     opt.DstHost.ID(),
		FlowID:  opt.FlowID,
		Subflow: 0,
		SrcPort: uint16(10000 + rng.Intn(50000)),
		DstPort: 80,
		Source:  &c.psSrc,
		// The PS phase runs a single plain-TCP window; only the
		// duplicate-ACK threshold and per-packet ports differ.
		DupThresh:    topologyDupThresh(opt.PathCount),
		ScatterPorts: func() uint16 { return uint16(1024 + rng.Intn(64000)) },
		IfacePicker:  ifacePicker,
		Recorder:     opt.Recorder,
	}
	switch cfg.Threshold {
	case ThresholdAdaptive:
		// RR-TCP-like: start at the standard threshold and learn from
		// spurious-retransmission signals.
		psOpts.DupThresh = tcpCfg.DupAckThreshold
		psOpts.AdaptiveDupThresh = true
	case ThresholdStandard:
		psOpts.DupThresh = tcpCfg.DupAckThreshold
	}
	c.ps = tcp.NewSender(tcpCfg, psOpts)
	c.ps.OnAllAcked = func() {
		c.psDone = true
		c.checkDone()
	}
	c.psSrc.onExhausted = c.maybeSwitch
	if cfg.Strategy == SwitchCongestionEvent {
		c.ps.OnCongestionEvent = func() {
			if !c.switched {
				c.psSrc.capNow()
				c.maybeSwitch()
			}
		}
	}
	return c
}

// Start begins the packet-scatter phase.
func (c *Conn) Start() { c.ps.Start() }

// Receiver returns the connection's receive endpoint.
func (c *Conn) Receiver() *tcp.Receiver { return c.rcv }

// PacketScatter returns the PS-phase sender (subflow 0).
func (c *Conn) PacketScatter() *tcp.Sender { return c.ps }

// MPTCP returns the phase-two connection, or nil before the switch.
func (c *Conn) MPTCP() *mptcp.Connection { return c.mp }

// Switched reports whether the connection has entered the MPTCP phase.
func (c *Conn) Switched() bool { return c.switched }

// SwitchedAt returns the phase-switch time (0 if it never happened).
func (c *Conn) SwitchedAt() sim.Time { return c.switchedAt }

// Deferrals returns how many times the phase switch was postponed
// waiting for routing convergence.
func (c *Conn) Deferrals() int { return c.deferrals }

// RedialStats reports MPTCP-phase re-dial attempts and recoveries
// (zero before the phase switch).
func (c *Conn) RedialStats() (redials, recovered int) {
	if c.mp == nil {
		return 0, 0
	}
	return c.mp.RedialStats()
}

// Stats aggregates sender statistics over both phases.
func (c *Conn) Stats() tcp.SenderStats {
	agg := c.ps.Stats
	if c.mp != nil {
		m := c.mp.Stats()
		agg.SegmentsSent += m.SegmentsSent
		agg.BytesSent += m.BytesSent
		agg.Retransmissions += m.Retransmissions
		agg.FastRetransmits += m.FastRetransmits
		agg.Timeouts += m.Timeouts
		agg.AcksReceived += m.AcksReceived
		agg.DupAcksReceived += m.DupAcksReceived
	}
	return agg
}

// maybeSwitch enters the MPTCP phase if data remains beyond what the PS
// phase was allowed to carry. It is invoked when the PS source caps out
// (data-volume) or at the first congestion event.
func (c *Conn) maybeSwitch() {
	if c.switched || c.closed {
		return
	}
	handover := c.psSrc.allocated
	if c.opt.Size >= 0 && handover >= c.opt.Size {
		return // the whole flow fit in the PS phase
	}
	if c.cfg.DeferPhaseSwitch && c.opt.Observer != nil && c.opt.Observer.ConvergenceOpen() {
		now := c.eng.Now()
		if !c.deferring {
			c.deferring = true
			c.deferStart = now
		}
		if now-c.deferStart < MaxDefer {
			// Convergence window still open and the deferral bound not
			// yet reached: postpone, and poll again soon. The re-check
			// interval never overshoots deferStart+MaxDefer, so the
			// forced switch lands exactly at the bound under sustained
			// churn.
			c.deferrals++
			if c.opt.Recorder != nil {
				c.opt.Recorder.Record(now, trace.KindPhaseDefer, c.opt.FlowID, 0,
					int32(c.opt.SrcHost.ID()), int32(c.opt.DstHost.ID()),
					int64(c.deferrals), 0)
			}
			if !c.pollArmed {
				c.pollArmed = true
				interval := min(MaxDefer/8, c.deferStart+MaxDefer-now)
				c.eng.Schedule(interval, func() {
					c.pollArmed = false
					c.maybeSwitch()
				})
			}
			return
		}
		// MaxDefer elapsed with churn still in progress: switch anyway.
		if c.opt.Recorder != nil {
			c.opt.Recorder.Record(now, trace.KindPhaseDefer, c.opt.FlowID, 0,
				int32(c.opt.SrcHost.ID()), int32(c.opt.DstHost.ID()),
				int64(c.deferrals), 1)
		}
	}
	c.switched = true
	c.switchedAt = c.eng.Now()
	if c.opt.Recorder != nil {
		c.opt.Recorder.Record(c.switchedAt, trace.KindPhaseSwitch, c.opt.FlowID, 0,
			int32(c.opt.SrcHost.ID()), int32(c.opt.DstHost.ID()),
			handover, int64(c.cfg.MPTCP.Subflows))
	}
	c.mp = mptcp.Dial(c.cfg.MPTCP, mptcp.Options{
		SrcHost:     c.opt.SrcHost,
		DstHost:     c.opt.DstHost,
		FlowID:      c.opt.FlowID,
		Size:        c.opt.Size,
		DataStart:   handover,
		SubflowBase: 1, // subflow 0 is the PS flow
		RNG:         c.opt.RNG,
		Receiver:    c.rcv,
		Recorder:    c.opt.Recorder,
	})
	c.mp.OnAllAcked = func() {
		c.mpDone = true
		c.checkDone()
	}
	// Defer the actual start to a fresh event: maybeSwitch can be
	// reached from inside the PS sender's transmission loop, and the
	// new subflows' sends must not interleave with it re-entrantly.
	c.eng.Schedule(0, c.mp.Start)
	if c.OnSwitch != nil {
		c.OnSwitch()
	}
}

func (c *Conn) checkDone() {
	if c.closed || !c.psDone {
		return
	}
	if c.switched && !c.mpDone {
		return
	}
	if c.OnAllAcked != nil {
		done := c.OnAllAcked
		c.OnAllAcked = nil
		done()
	}
}

// Close tears down both phases.
func (c *Conn) Close() {
	c.closed = true
	c.ps.Close()
	if c.mp != nil {
		c.mp.Close()
	}
	c.rcv.Close()
}

// psSource feeds the packet-scatter sender: the identity mapping over
// [0, min(size, cap)), where cap is the data-volume threshold (or is
// imposed at the first congestion event). When the source caps out with
// data remaining it reports exhaustion to the sender — which then only
// drains its window — and notifies the connection to switch phases.
type psSource struct {
	size      int64 // flow size; -1 unbounded
	cap       int64 // PS-phase byte budget; -1 unbounded (congestion-event strategy)
	allocated int64

	onExhausted func()
	notified    bool
}

// Next implements tcp.DataSource.
func (p *psSource) Next(maxBytes int) (int64, int, bool) {
	limit := p.limit()
	if limit >= 0 && p.allocated >= limit {
		p.notify()
		return p.allocated, 0, true
	}
	n := int64(maxBytes)
	if limit >= 0 && p.allocated+n > limit {
		n = limit - p.allocated
	}
	seq := p.allocated
	p.allocated += n
	exhausted := limit >= 0 && p.allocated >= limit
	if exhausted {
		p.notify()
	}
	return seq, int(n), exhausted
}

// limit returns the effective PS byte budget (-1 for unlimited).
func (p *psSource) limit() int64 {
	switch {
	case p.size < 0:
		return p.cap
	case p.cap < 0:
		return p.size
	case p.cap < p.size:
		return p.cap
	default:
		return p.size
	}
}

// capNow freezes the budget at what has already been allocated (the
// congestion-event switch: no new data enters the PS flow).
func (p *psSource) capNow() {
	p.cap = p.allocated
	p.notify()
}

func (p *psSource) notify() {
	if p.notified || p.onExhausted == nil {
		return
	}
	p.notified = true
	p.onExhausted()
}
