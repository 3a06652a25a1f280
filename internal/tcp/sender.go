package tcp

import (
	"fmt"
	"sort"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SenderStats accumulates per-sender counters. The paper's Figure 1
// analysis hinges on Timeouts: "even a single RTO may result in flow
// deadline violation".
type SenderStats struct {
	SegmentsSent    int64 // data segments transmitted (including retransmissions)
	BytesSent       int64 // payload bytes transmitted (including retransmissions)
	Retransmissions int64 // retransmitted segments
	FastRetransmits int64 // fast-retransmit events entered
	Timeouts        int64 // retransmission timeouts fired
	AcksReceived    int64
	DupAcksReceived int64
	// SpuriousSignals counts DSACK-style duplicate-arrival echoes: each
	// one is evidence that a retransmission was unnecessary.
	SpuriousSignals int64
}

// mapping records which data-level chunk occupies a stretch of
// subflow-level sequence space, so retransmissions carry the same data
// sequence. An entry is a run of consecutive grants that continue each
// other in data sequence; every grant but its last is a whole MSS, so
// the run cuts back into exactly the granted segments (segmentAt).
type mapping struct {
	subSeq  int64
	dataSeq int64
	n       int64
}

// maxAdaptiveDupThresh caps the RR-TCP-style adaptive duplicate-ACK
// threshold (SenderOptions.AdaptiveDupThresh).
const maxAdaptiveDupThresh = 64

// Sender is a TCP NewReno sender over the simulated network. One Sender
// drives one subflow; plain TCP is a single Sender with the identity
// source. It implements netem.Endpoint to consume ACKs.
type Sender struct {
	eng  *sim.Engine // the host's engine
	cfg  Config
	host *netem.Host

	iface   int
	dst     netem.NodeID
	flowID  uint64
	subflow int8
	srcPort uint16
	dstPort uint16

	// Scatter, when non-nil, supplies a fresh source port for every
	// data packet (MMPTCP packet-scatter phase). ACKs still identify
	// the flow via FlowID, so demultiplexing is unaffected; only the
	// ECMP hash changes per packet.
	scatter func() uint16

	// ifacePicker, when non-nil, chooses the outgoing interface per
	// packet (multi-homed hosts: the packet-scatter phase sprays
	// across every NIC, per the paper's multi-homing roadmap).
	ifacePicker func() int

	src DataSource
	cc  CongestionControl

	// DupThresh is the duplicate-ACK threshold for fast retransmit.
	// Plain TCP uses cfg.DupAckThreshold; the packet-scatter phase
	// raises it based on the topology's path count.
	dupThresh int

	// adaptive, when true, raises dupThresh by one for every
	// DSACK-style spurious-retransmission signal (RR-TCP, the paper's
	// §2 approach (2)), capped at maxAdaptiveDupThresh.
	adaptive bool

	// Congestion state, exported for congestion-control plug-ins.
	Cwnd     float64 // congestion window, bytes
	Ssthresh float64 // slow-start threshold, bytes

	sndUna   int64
	sndNxt   int64
	highSent int64 // highest sequence ever sent (Retx detection)
	limit    int64 // bytes granted by the source so far
	finished bool  // the source is exhausted; limit is final
	// maps holds the granted runs in subflow-sequence order: one live
	// run for an identity source, about one per trySend burst for an
	// MPTCP subflow. Entries before mapHead lie fully below snd.una:
	// pruneMappings steps over them and slides the live rest down in
	// place, so the array is as long as the window's runs, not the flow.
	maps    []mapping
	mapHead int

	dupAcks    int
	inRecovery bool
	recover    int64

	// Persistent-RTO detection (subflow re-dialing): consecRTOs counts
	// retransmission timeouts since the last new ACK; when it reaches
	// deadRTOs (> 0) the OnPersistentRTO hook fires so the owner can
	// declare the path dead. Zero deadRTOs disables the machinery
	// entirely — no counter comparison changes behaviour.
	deadRTOs   int
	consecRTOs int

	srtt   sim.Time
	rttvar sim.Time
	hasRTT bool
	rto    sim.Time
	timer  *sim.Timer

	done bool

	// rec, when non-nil, receives structured trace events; every trace
	// point is nil-guarded. lastCwnd/lastRTO remember the last recorded
	// values so cwnd/RTO events fire only on change (and only while
	// tracing — untraced runs never touch them).
	rec      *trace.Recorder
	lastCwnd int64
	lastRTO  sim.Time

	Stats SenderStats

	// OnAllAcked fires once when every granted byte has been
	// cumulatively acknowledged and the source is exhausted.
	OnAllAcked func()
	// OnCongestionEvent fires on every fast retransmit or timeout
	// (MMPTCP's congestion-event switching strategy hooks this).
	OnCongestionEvent func()
	// OnPersistentRTO fires when DeadRTOs consecutive timeouts elapse
	// without an intervening new ACK — the path is presumed dead. The
	// hook may Close the sender (subflow re-dialing does); onTimeout
	// detects that and stops touching the torn-down state.
	OnPersistentRTO func()
}

// SenderOptions bundles the identity of a sender's flow.
type SenderOptions struct {
	Host    *netem.Host
	Iface   int // uplink index (multi-homed hosts)
	Dst     netem.NodeID
	FlowID  uint64
	Subflow int8
	SrcPort uint16
	DstPort uint16
	Source  DataSource
	CC      CongestionControl // nil means RenoCC
	// DupThresh overrides cfg.DupAckThreshold when > 0.
	DupThresh int
	// ScatterPorts, when non-nil, randomises the source port per packet.
	ScatterPorts func() uint16
	// IfacePicker, when non-nil, chooses the outgoing interface per
	// packet (overrides Iface).
	IfacePicker func() int
	// AdaptiveDupThresh enables RR-TCP-style learning: every spurious
	// retransmission signalled by the receiver raises the duplicate-ACK
	// threshold by one, up to 64.
	AdaptiveDupThresh bool
	// DeadRTOs, when > 0, arms persistent-RTO detection: after this
	// many consecutive timeouts without a new ACK the OnPersistentRTO
	// hook fires (once per streak). Zero leaves stalled senders backing
	// off forever, exactly as before.
	DeadRTOs int
	// Recorder, when non-nil, receives structured trace events for this
	// sender (segment sends, acks, cwnd/RTO moves, recovery episodes,
	// subflow lifecycle). Tracing observes only: it never schedules
	// events or perturbs the transmission sequence.
	Recorder *trace.Recorder
}

// NewSender creates a sender, registers it on its host for ACK delivery
// and leaves it idle until Start. cfg is taken as complete (see Config).
// The sender schedules on its host's engine — the one engine of a
// sequential run, the owning shard's under the sharded fabric.
func NewSender(cfg Config, opt SenderOptions) *Sender {
	if opt.Source == nil {
		panic("tcp: sender needs a data source")
	}
	cc := opt.CC
	if cc == nil {
		cc = RenoCC{}
	}
	dup := opt.DupThresh
	if dup <= 0 {
		dup = cfg.DupAckThreshold
	}
	s := &Sender{
		eng:         opt.Host.Engine(),
		cfg:         cfg,
		host:        opt.Host,
		iface:       opt.Iface,
		dst:         opt.Dst,
		flowID:      opt.FlowID,
		subflow:     opt.Subflow,
		srcPort:     opt.SrcPort,
		dstPort:     opt.DstPort,
		scatter:     opt.ScatterPorts,
		ifacePicker: opt.IfacePicker,
		src:         opt.Source,
		cc:          cc,
		dupThresh:   dup,
		adaptive:    opt.AdaptiveDupThresh,
		deadRTOs:    opt.DeadRTOs,
		rec:         opt.Recorder,
		Cwnd:        float64(cfg.InitialWindow * cfg.MSS),
		Ssthresh:    1 << 30,
		rto:         cfg.InitialRTO,
	}
	s.timer = sim.NewTimer(s.eng, s.onTimeout)
	s.host.Register(s.flowID, s.subflow, s)
	return s
}

// Config returns the sender's TCP parameters.
func (s *Sender) Config() Config { return s.cfg }

// Start begins transmission.
func (s *Sender) Start() {
	if s.rec != nil {
		s.rec.Record(s.eng.Now(), trace.KindSubflowOpen, s.flowID, s.subflow,
			int32(s.host.ID()), int32(s.dst), int64(s.srcPort), 0)
	}
	s.trySend()
}

// Done reports whether every granted byte has been acknowledged and the
// source is exhausted.
func (s *Sender) Done() bool { return s.done }

// Flight returns the number of unacknowledged bytes in flight.
func (s *Sender) Flight() int64 { return s.sndNxt - s.sndUna }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() sim.Time { return s.srtt }

// DupThresh returns the duplicate-ACK threshold in force.
func (s *Sender) DupThresh() int { return s.dupThresh }

// Subflow returns the sender's subflow identifier.
func (s *Sender) Subflow() int8 { return s.subflow }

// SrcPort returns the sender's source port (the per-packet scatter
// port, when enabled, overrides it on the wire).
func (s *Sender) SrcPort() uint16 { return s.srcPort }

// Granted returns the number of bytes the source has granted so far.
func (s *Sender) Granted() int64 { return s.limit }

// Acked returns the cumulative acknowledged byte count.
func (s *Sender) Acked() int64 { return s.sndUna }

// HandlePacket implements netem.Endpoint: consume ACKs.
func (s *Sender) HandlePacket(p *netem.Packet) {
	if !p.IsAck() || s.done {
		return
	}
	s.Stats.AcksReceived++
	if s.rec != nil {
		s.rec.Record(s.eng.Now(), trace.KindAck, s.flowID, s.subflow,
			int32(s.host.ID()), int32(s.dst), p.AckSeq, s.Flight())
	}
	if p.EchoTS > 0 {
		s.sampleRTT(s.eng.Now() - p.EchoTS)
	}
	if p.Flags&netem.FlagEchoDup != 0 {
		s.Stats.SpuriousSignals++
		if s.adaptive && s.dupThresh < maxAdaptiveDupThresh {
			s.dupThresh++
		}
	}
	switch {
	case p.AckSeq > s.sndUna:
		if ecn, ok := s.cc.(ECNCapable); ok {
			ecn.OnECNEcho(s, int(p.AckSeq-s.sndUna), p.Flags&netem.FlagEchoCE != 0)
		}
		s.onNewAck(p.AckSeq)
	case p.AckSeq == s.sndUna && s.Flight() > 0:
		s.Stats.DupAcksReceived++
		s.onDupAck()
	default:
		// Stale ACK (reordered below snd.una): ignore.
	}
	s.trySend()
	s.traceWindow()
	s.checkDone()
}

// traceWindow records cwnd/RTO trace events when either has moved since
// the last recording. Untraced runs exit on the first nil check.
func (s *Sender) traceWindow() {
	if s.rec == nil {
		return
	}
	if c := int64(s.Cwnd); c != s.lastCwnd {
		s.rec.Record(s.eng.Now(), trace.KindCwnd, s.flowID, s.subflow,
			int32(s.host.ID()), int32(s.dst), c, int64(s.Ssthresh))
		s.lastCwnd = c
	}
	if s.rto != s.lastRTO {
		s.rec.Record(s.eng.Now(), trace.KindRTO, s.flowID, s.subflow,
			int32(s.host.ID()), int32(s.dst), int64(s.rto), int64(s.srtt))
		s.lastRTO = s.rto
	}
}

func (s *Sender) onNewAck(ack int64) {
	acked := ack - s.sndUna
	s.sndUna = ack
	s.consecRTOs = 0 // forward progress: the path is alive
	// After a timeout rolls snd.nxt back, a late cumulative ACK for the
	// original transmissions can overtake it; snd.nxt never trails the
	// acknowledged prefix.
	if s.sndNxt < s.sndUna {
		s.sndNxt = s.sndUna
	}
	s.pruneMappings()
	if s.inRecovery {
		if ack >= s.recover {
			// Full acknowledgement: leave recovery, deflate.
			s.inRecovery = false
			s.Cwnd = s.Ssthresh
			s.dupAcks = 0
		} else {
			// Partial acknowledgement (RFC 6582): retransmit the next
			// hole, deflate by the amount acknowledged.
			s.Cwnd -= float64(acked)
			s.Cwnd += float64(s.cfg.MSS)
			if s.Cwnd < float64(s.cfg.MSS) {
				s.Cwnd = float64(s.cfg.MSS)
			}
			s.dupAcks = 0
			s.retransmitFirstUnacked()
		}
	} else {
		s.dupAcks = 0
		s.cc.OnAck(s, int(acked))
	}
	s.restartTimer()
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	switch {
	case s.inRecovery:
		// Window inflation: each dup ACK signals a departed segment.
		s.Cwnd += float64(s.cfg.MSS)
	case s.dupAcks == s.dupThresh:
		s.enterRecovery()
	}
}

func (s *Sender) enterRecovery() {
	s.Stats.FastRetransmits++
	s.Ssthresh = s.halfFlight()
	s.recover = s.sndNxt
	if s.rec != nil {
		s.rec.Record(s.eng.Now(), trace.KindFastRetransmit, s.flowID, s.subflow,
			int32(s.host.ID()), int32(s.dst), s.recover, int64(s.Ssthresh))
	}
	s.inRecovery = true
	s.retransmitFirstUnacked()
	s.Cwnd = s.Ssthresh + float64(s.dupThresh*s.cfg.MSS)
	if s.OnCongestionEvent != nil {
		s.OnCongestionEvent()
	}
}

// halfFlight returns max(flight/2, 2*MSS): the NewReno ssthresh rule.
func (s *Sender) halfFlight() float64 {
	half := float64(s.Flight()) / 2
	floor := float64(2 * s.cfg.MSS)
	if half < floor {
		return floor
	}
	return half
}

func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	s.Stats.Timeouts++
	// Exponential backoff; the next valid RTT sample recomputes RTO.
	s.rto *= 2
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.Ssthresh = s.halfFlight()
	s.Cwnd = float64(s.cfg.MSS)
	s.inRecovery = false
	s.dupAcks = 0
	// Go-back-N: resume from the first unacknowledged byte.
	s.sndNxt = s.sndUna
	if s.rec != nil {
		// A timeout is also the trace's subflow-stall signal: the window
		// drained without a recovery path and only the timer moved us.
		s.rec.Record(s.eng.Now(), trace.KindTimeout, s.flowID, s.subflow,
			int32(s.host.ID()), int32(s.dst), int64(s.rto), s.sndUna)
	}
	if s.OnCongestionEvent != nil {
		s.OnCongestionEvent()
	}
	if s.deadRTOs > 0 {
		s.consecRTOs++
		if s.consecRTOs >= s.deadRTOs && s.OnPersistentRTO != nil {
			s.consecRTOs = 0 // re-arm so the streak can fire again
			s.OnPersistentRTO()
			if s.done {
				return // the hook tore the sender down (re-dial)
			}
		}
	}
	s.trySend()
	s.traceWindow()
	// trySend restarts the timer when it transmits; if it could not
	// (e.g. zero flight because everything was acknowledged racefully),
	// ensure we are still armed while data is outstanding.
	if s.Flight() > 0 && !s.timer.Active() {
		s.timer.Reset(s.rto)
	}
}

// trySend transmits as long as the congestion window allows, granting
// new data from the source as needed.
func (s *Sender) trySend() {
	if s.done {
		return
	}
	for s.Flight() < int64(s.Cwnd) {
		if s.sndNxt >= s.limit {
			if s.finished {
				break
			}
			dataSeq, n, exhausted := s.src.Next(s.cfg.MSS)
			if exhausted {
				s.finished = true
			}
			if n == 0 {
				break
			}
			// Extend the last live run when the grant continues it and
			// the run is whole segments; otherwise open a new run.
			if last := len(s.maps) - 1; last >= s.mapHead && s.maps[last].dataSeq+s.maps[last].n == dataSeq &&
				s.maps[last].n%int64(s.cfg.MSS) == 0 {
				s.maps[last].n += int64(n)
			} else {
				s.maps = append(s.maps, mapping{s.limit, dataSeq, int64(n)})
			}
			s.limit += int64(n)
		}
		m, ok := s.segmentAt(s.sndNxt)
		if !ok {
			panic(fmt.Sprintf("tcp: no mapping for seq %d (limit %d)", s.sndNxt, s.limit))
		}
		retx := m.subSeq < s.highSent
		s.transmit(m, retx)
		s.sndNxt = m.subSeq + m.n
		if s.sndNxt > s.highSent {
			s.highSent = s.sndNxt
		}
	}
	// A sender whose source is exhausted with nothing outstanding is
	// finished (covers subflows that never receive any allocation).
	s.checkDone()
}

// retransmitFirstUnacked resends the segment at snd.una (fast
// retransmit / NewReno partial-ACK retransmission).
func (s *Sender) retransmitFirstUnacked() {
	m, ok := s.segmentAt(s.sndUna)
	if !ok {
		return
	}
	s.transmit(m, true)
	s.restartTimer()
}

func (s *Sender) transmit(m mapping, retx bool) {
	sport := s.srcPort
	if s.scatter != nil {
		sport = s.scatter()
	}
	p := s.host.NewPacket()
	p.Src = s.host.ID()
	p.Dst = s.dst
	p.SrcPort = sport
	p.DstPort = s.dstPort
	p.Size = uint16(s.cfg.HeaderBytes + int(m.n))
	p.FlowID = uint32(s.flowID)
	p.Subflow = s.subflow
	p.Flags = netem.FlagData
	if retx {
		p.Flags |= netem.FlagRetx
	}
	p.Seq = m.subSeq
	p.PayloadLen = uint16(m.n)
	p.DataSeq = m.dataSeq
	p.SentTS = s.eng.Now()
	s.Stats.SegmentsSent++
	s.Stats.BytesSent += m.n
	if retx {
		s.Stats.Retransmissions++
	}
	if s.rec != nil {
		kind := trace.KindSegmentSend
		if retx {
			kind = trace.KindSegmentRetx
		}
		s.rec.Record(s.eng.Now(), kind, s.flowID, s.subflow,
			int32(s.host.ID()), int32(s.dst), m.subSeq, m.n)
	}
	iface := s.iface
	if s.ifacePicker != nil {
		iface = s.ifacePicker()
	}
	s.host.SendOn(p, iface)
	if !s.timer.Active() {
		s.timer.Reset(s.rto)
	}
}

// segmentAt returns the segment containing seq: the MSS-aligned piece
// of the run holding it, which is the grant that put seq on the wire.
func (s *Sender) segmentAt(seq int64) (mapping, bool) {
	live := s.maps[s.mapHead:]
	i := sort.Search(len(live), func(i int) bool {
		return live[i].subSeq+live[i].n > seq
	})
	if i == len(live) || live[i].subSeq > seq {
		return mapping{}, false
	}
	m, mss := live[i], int64(s.cfg.MSS)
	off := (seq - m.subSeq) / mss * mss
	return mapping{m.subSeq + off, m.dataSeq + off, min(mss, m.n-off)}, true
}

// pruneMappings discards mappings fully below snd.una. Re-slicing them
// away would give up the array's front, and trySend's append would then
// regrow it for as long as the flow lives; instead the dead prefix is
// skipped until it outgrows the live rest, which is then copied down —
// each mapping moves at most once per halving.
func (s *Sender) pruneMappings() {
	i := s.mapHead
	for i < len(s.maps) && s.maps[i].subSeq+s.maps[i].n <= s.sndUna {
		i++
	}
	if i > len(s.maps)-i {
		s.maps = s.maps[:copy(s.maps, s.maps[i:])]
		i = 0
	}
	s.mapHead = i
}

func (s *Sender) restartTimer() {
	if s.Flight() > 0 {
		s.timer.Reset(s.rto)
	} else {
		s.timer.Stop()
	}
}

func (s *Sender) sampleRTT(sample sim.Time) {
	if sample <= 0 {
		return
	}
	if !s.hasRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasRTT = true
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	rto := s.srtt + 4*s.rttvar
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	if rto > s.cfg.MaxRTO {
		rto = s.cfg.MaxRTO
	}
	s.rto = rto
}

func (s *Sender) checkDone() {
	if s.done || !s.finished || s.sndUna < s.limit {
		return
	}
	s.done = true
	s.timer.Stop()
	if s.rec != nil {
		s.rec.Record(s.eng.Now(), trace.KindSubflowClose, s.flowID, s.subflow,
			int32(s.host.ID()), int32(s.dst), s.sndUna, 0)
	}
	if s.OnAllAcked != nil {
		s.OnAllAcked()
	}
}

// UnackedData returns the data-level intervals this sender was granted
// but has not yet cumulatively acknowledged, as {dataSeq, n} pairs in
// subflow-sequence order: one per run, the run straddling snd.una
// clipped to its unacknowledged suffix. The redial path hands these back
// to the connection for re-pull by a replacement subflow.
func (s *Sender) UnackedData() [][2]int64 {
	live := s.maps[s.mapHead:]
	if len(live) == 0 {
		return nil
	}
	out := make([][2]int64, 0, len(live))
	for _, m := range live {
		start, n := m.dataSeq, m.n
		if skip := s.sndUna - m.subSeq; skip > 0 {
			start += skip
			n -= skip
		}
		if n > 0 {
			out = append(out, [2]int64{start, n})
		}
	}
	return out
}

// Close tears the sender down mid-flow: stops its timer (cancelling and
// recycling the pending timeout event), removes its host registration,
// and releases the per-flow state a stalled sender can pin — the
// sequence mappings of everything still in flight.
// Late ACKs are then counted as unclaimed by the host, which recycles
// their packets to the pool as it does for every delivered packet.
func (s *Sender) Close() {
	s.done = true
	s.timer.Stop()
	s.host.Unregister(s.flowID, s.subflow)
	s.maps, s.mapHead = nil, 0
	s.OnAllAcked = nil
	s.OnCongestionEvent = nil
	s.OnPersistentRTO = nil
}
