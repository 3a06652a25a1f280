// Package mptcp implements Multipath TCP over the simulated network: a
// connection opens N subflows with independently randomised source ports
// (so hash-based ECMP places them on distinct paths), distributes
// connection-level data across subflows on demand, and couples their
// congestion-avoidance growth with the Linked Increases Algorithm (LIA,
// RFC 6356) — the model the paper evaluates against (its custom ns-3
// MPTCP, reference [5] in the paper).
//
// Allocation is pull-based and permanent: a subflow with window space
// requests the next chunk of data-level sequence space and then owns it,
// including retransmissions. A connection-level receiver (tcp.Receiver)
// acknowledges each subflow cumulatively and tracks data-level delivery.
// This reproduces the failure mode at the heart of the paper's Figure 1:
// with many subflows, each congestion window is tiny, a single loss
// often cannot gather three duplicate ACKs, and the whole connection
// stalls on that subflow's RTO.
package mptcp

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Config parametrises an MPTCP connection. Dial takes it as complete: no
// field is defaulted on the way in (DefaultConfig is the paper's setting).
// Every subflow opens at connection establishment, as in the paper's ns-3
// model, and the subflows are coupled by LIA.
type Config struct {
	TCP      tcp.Config
	Subflows int // number of subflows (the paper's headline setting is 8)

	// DeadRTOs, when > 0, arms subflow re-dialing: a subflow that fires
	// this many consecutive RTOs without a new ACK is declared dead,
	// closed, and replaced by a fresh sender on a new randomised source
	// port (re-hashing onto a hopefully-live ECMP path). The dead
	// subflow's unacknowledged data-level allocation migrates back to
	// the connection for re-pull. Zero disables recovery entirely: no
	// extra RNG draws, no extra events, byte-identical runs.
	DeadRTOs int
	// RedialBudget caps re-dial attempts per connection. A connection out
	// of budget leaves its stalled subflows backing off exactly as with
	// recovery disabled.
	RedialBudget int
}

// redialBackoff is the base delay between repeated re-dials of the same
// subflow slot: the first replacement dials immediately, the k-th waits
// min(redialBackoff << (k-2), 16*redialBackoff).
const redialBackoff = 10 * sim.Millisecond

// DefaultConfig returns the paper's MPTCP configuration: 8 subflows, LIA.
func DefaultConfig() Config {
	return Config{TCP: tcp.DefaultConfig(), Subflows: 8}
}

// Options identifies a connection's endpoints and data range.
type Options struct {
	SrcHost *netem.Host
	DstHost *netem.Host
	FlowID  uint64
	// Size is the total connection bytes (-1 for an unbounded
	// background flow).
	Size int64
	// DataStart offsets the first data-level byte this connection is
	// responsible for. Plain MPTCP uses 0; MMPTCP hands over the bytes
	// remaining after its packet-scatter phase.
	DataStart int64
	// SubflowBase numbers the first subflow. Plain MPTCP uses 0;
	// MMPTCP reserves subflow 0 for the packet-scatter flow.
	SubflowBase int8
	// RNG draws each subflow's source port (the destination port is 80).
	// Required.
	RNG *sim.RNG
	// Receiver, when non-nil, is shared with a pre-existing receive
	// endpoint (MMPTCP's, which also serves the packet-scatter flow).
	// When nil, the connection creates its own tcp.Receiver.
	Receiver *tcp.Receiver
	// Recorder, when non-nil, is handed to every subflow sender so the
	// structured trace sees subflow opens/closes and per-segment events.
	Recorder *trace.Recorder
}

// Connection is the sender side of an MPTCP connection plus its
// (possibly shared) receiver.
type Connection struct {
	eng *sim.Engine // the source host's engine: sender-side scheduling
	cfg Config
	opt Options // retained for re-dialing (endpoints, RNG, recorder)

	flowID   uint64
	subflows []*tcp.Sender
	rcv      *tcp.Receiver
	ownRcv   bool
	cc       tcp.CongestionControl // shared LIA state; replacements re-enter it
	ifaces   int

	// Data-level allocation pool [next, end); end == -1 is unbounded.
	next int64
	end  int64

	// reclaim queues data-level intervals {dataSeq, n} migrated back
	// from dead subflows; allocate serves it before the contiguous pool.
	reclaim [][2]int64

	// Re-dial state: nextSub numbers replacement subflows (fresh IDs so
	// the receiver starts clean per-subflow reorder state), attempts
	// counts re-dials per slot for the backoff schedule, redials counts
	// attempts against cfg.RedialBudget, replacements retains every
	// replacement sender for recovery accounting.
	nextSub      int8
	attempts     []int
	redials      int
	replacements []*tcp.Sender

	doneSubflows int

	// OnAllAcked fires once when every subflow has delivered and had
	// acknowledged all data allocated to it.
	OnAllAcked func()
}

// Dial creates the connection: a receiver on the destination host
// (unless shared) and cfg.Subflows senders on the source host. Subflows
// are idle until Start. cfg is taken as complete (see Config). Each
// endpoint schedules on its own host's engine: the receiver on the
// destination's, the senders on the source's.
func Dial(cfg Config, opt Options) *Connection {
	if opt.RNG == nil {
		panic("mptcp: Options.RNG is required")
	}
	c := &Connection{
		eng:    opt.SrcHost.Engine(),
		cfg:    cfg,
		opt:    opt,
		flowID: opt.FlowID,
		next:   opt.DataStart,
		end:    -1,
	}
	if opt.Size >= 0 {
		c.end = opt.Size
		if c.end < c.next {
			panic(fmt.Sprintf("mptcp: DataStart %d beyond Size %d", opt.DataStart, opt.Size))
		}
	}
	c.rcv = opt.Receiver
	if c.rcv == nil {
		c.rcv = tcp.NewReceiver(cfg.TCP, opt.DstHost, opt.FlowID, opt.Size)
		c.ownRcv = true
	}

	c.cc = &liaCC{conn: c}
	// On multi-homed hosts, spread subflows round-robin across the
	// interfaces (the paper's roadmap: more parallel paths at the
	// access layer).
	c.ifaces = len(opt.SrcHost.Uplinks())
	if c.ifaces == 0 {
		c.ifaces = 1
	}
	// Replacement subflows get fresh IDs above the initial range so the
	// receiver opens clean per-subflow reorder state for each.
	c.nextSub = opt.SubflowBase + int8(cfg.Subflows)
	if cfg.DeadRTOs > 0 {
		c.attempts = make([]int, cfg.Subflows)
	}
	for i := 0; i < cfg.Subflows; i++ {
		sub := c.newSender(i, opt.SubflowBase+int8(i), uint16(10000+opt.RNG.Intn(50000)))
		c.subflows = append(c.subflows, sub)
	}
	return c
}

// newSender builds the sender for one subflow slot (initial dial and
// re-dial share it) and wires its completion and death hooks.
func (c *Connection) newSender(slot int, subflowID int8, srcPort uint16) *tcp.Sender {
	sub := tcp.NewSender(c.cfg.TCP, tcp.SenderOptions{
		Host:     c.opt.SrcHost,
		Iface:    slot % c.ifaces,
		Dst:      c.opt.DstHost.ID(),
		FlowID:   c.opt.FlowID,
		Subflow:  subflowID,
		SrcPort:  srcPort,
		DstPort:  80,
		Source:   &subflowSource{conn: c},
		CC:       c.cc,
		DeadRTOs: c.cfg.DeadRTOs,
		Recorder: c.opt.Recorder,
	})
	sub.OnAllAcked = c.subflowDone
	if c.cfg.DeadRTOs > 0 {
		sub.OnPersistentRTO = func() { c.subflowDead(slot) }
	}
	return sub
}

// Start opens all subflows.
func (c *Connection) Start() {
	for _, sub := range c.subflows {
		sub.Start()
	}
}

// Receiver returns the connection's receive endpoint.
func (c *Connection) Receiver() *tcp.Receiver { return c.rcv }

// Subflows returns the subflow senders (read-only use).
func (c *Connection) Subflows() []*tcp.Sender { return c.subflows }

// Stats aggregates sender statistics across subflows.
func (c *Connection) Stats() tcp.SenderStats {
	var agg tcp.SenderStats
	for _, s := range c.subflows {
		st := s.Stats
		agg.SegmentsSent += st.SegmentsSent
		agg.BytesSent += st.BytesSent
		agg.Retransmissions += st.Retransmissions
		agg.FastRetransmits += st.FastRetransmits
		agg.Timeouts += st.Timeouts
		agg.AcksReceived += st.AcksReceived
		agg.DupAcksReceived += st.DupAcksReceived
	}
	return agg
}

// allocate grants up to maxBytes from the connection pool. Reclaimed
// intervals (migrated back from dead subflows) are served first, in
// death order, so re-pulled data reaches the receiver before fresh
// sequence space extends the tail. A reclaimed interval is a dead
// sender's unacked run, re-granted at most maxBytes at a time from its
// start, so the re-pulled chunks are the segments the dead sender carried.
func (c *Connection) allocate(maxBytes int) (int64, int, bool) {
	if len(c.reclaim) > 0 {
		iv := &c.reclaim[0]
		seq, n := iv[0], iv[1]
		if n > int64(maxBytes) {
			n = int64(maxBytes)
			iv[0] += n
			iv[1] -= n
		} else {
			c.reclaim = c.reclaim[1:]
		}
		return seq, int(n), c.exhausted()
	}
	if c.end >= 0 && c.next >= c.end {
		return c.next, 0, true
	}
	n := int64(maxBytes)
	if c.end >= 0 && c.next+n > c.end {
		n = c.end - c.next
	}
	seq := c.next
	c.next += n
	return seq, int(n), c.exhausted()
}

// exhausted reports whether the pool has nothing left to grant: the
// contiguous range is spent and no reclaimed intervals are queued.
func (c *Connection) exhausted() bool {
	return len(c.reclaim) == 0 && c.end >= 0 && c.next >= c.end
}

func (c *Connection) subflowDone() {
	c.doneSubflows++
	if c.doneSubflows == len(c.subflows) && c.OnAllAcked != nil {
		c.OnAllAcked()
	}
}

// subflowDead handles a persistent-RTO verdict on slot: close the
// stalled sender, migrate its unacked data-level allocation back to the
// connection, and schedule a replacement dial on a fresh source port
// (immediately for a slot's first death, capped-exponentially backed
// off for repeat deaths). Out of budget — or out of subflow-ID space —
// the stalled sender is left alone to back off exactly as with
// recovery disabled.
func (c *Connection) subflowDead(slot int) {
	if c.redials >= c.cfg.RedialBudget || c.nextSub < 0 {
		return
	}
	old := c.subflows[slot]
	unacked := old.UnackedData()
	if c.opt.Recorder != nil {
		c.opt.Recorder.Record(c.eng.Now(), trace.KindSubflowDead, c.flowID,
			old.Subflow(), int32(c.opt.SrcHost.ID()), int32(c.opt.DstHost.ID()),
			int64(c.cfg.DeadRTOs), old.Acked())
	}
	old.Close()
	c.reclaim = append(c.reclaim, unacked...)
	c.redials++
	k := c.attempts[slot]
	c.attempts[slot] = k + 1
	var delay sim.Time
	if k > 0 {
		delay = redialBackoff << uint(k-1)
		if lim := 16 * redialBackoff; delay > lim {
			delay = lim
		}
	}
	attempt := c.redials
	c.eng.Schedule(delay, func() { c.redial(slot, attempt) })
}

// redial replaces the (closed) sender in slot with a fresh one: new
// subflow ID, new randomised source port drawn from the connection's
// own RNG stream (determinism: the stream is private to this flow and
// consumed in event order), same shared congestion coupling.
func (c *Connection) redial(slot, attempt int) {
	sub := c.newSender(slot, c.nextSub, uint16(10000+c.opt.RNG.Intn(50000)))
	c.nextSub++ // wraps negative at 127; subflowDead stops redialing then
	c.subflows[slot] = sub
	c.replacements = append(c.replacements, sub)
	if c.opt.Recorder != nil {
		c.opt.Recorder.Record(c.eng.Now(), trace.KindSubflowRedial, c.flowID,
			sub.Subflow(), int32(c.opt.SrcHost.ID()), int32(c.opt.DstHost.ID()),
			int64(sub.SrcPort()), int64(attempt))
	}
	sub.Start()
}

// RedialStats reports re-dial attempts made and how many replacement
// subflows went on to acknowledge data (recovered the path).
func (c *Connection) RedialStats() (redials, recovered int) {
	redials = c.redials
	for _, s := range c.replacements {
		if s.Acked() > 0 {
			recovered++
		}
	}
	return redials, recovered
}

// Close tears down every subflow and the owned receiver.
func (c *Connection) Close() {
	for _, s := range c.subflows {
		s.Close()
	}
	if c.ownRcv {
		c.rcv.Close()
	}
}

// subflowSource adapts the connection pool to the tcp.DataSource pulled
// by one subflow.
type subflowSource struct{ conn *Connection }

// Next implements tcp.DataSource.
func (s *subflowSource) Next(maxBytes int) (int64, int, bool) {
	return s.conn.allocate(maxBytes)
}
