package tcp

import "repro/internal/netem"

// Receiver is the receive side of a connection. A single Receiver serves
// every subflow of an MPTCP/MMPTCP connection (it registers at the
// connection level): it keeps one reorder buffer per subflow for
// cumulative ACK generation, and one data-level interval set to detect
// completion of the whole transfer.
type Receiver struct {
	host *netem.Host

	flowID uint64
	size   int64 // expected data bytes; -1 for unbounded flows

	// subs holds each subflow's reorder buffer over its own sequence
	// space, indexed by subflow ID (0..127) and grown on first packet.
	subs []SeqSet
	data SeqSet

	delivered int64
	complete  bool

	// OnComplete fires once, when all size bytes have been received at
	// the data level.
	OnComplete func()
}

// NewReceiver creates a receiver for flowID expecting size data bytes
// (-1 for an unbounded background flow) and registers it on the host at
// the connection level, so it serves every subflow.
func NewReceiver(host *netem.Host, flowID uint64, size int64) *Receiver {
	r := &Receiver{
		host:   host,
		flowID: flowID,
		size:   size,
	}
	host.Register(flowID, -1, r)
	return r
}

// Delivered returns the number of distinct data-level bytes received.
func (r *Receiver) Delivered() int64 { return r.delivered }

// Complete reports whether the full transfer has been received.
func (r *Receiver) Complete() bool { return r.complete }

// HandlePacket implements netem.Endpoint: accept data, update the
// subflow reorder buffer and the data-level delivery set, and emit a
// cumulative ACK for the subflow.
func (r *Receiver) HandlePacket(p *netem.Packet) {
	if !p.IsData() {
		return
	}
	if id := int(p.Subflow); id >= len(r.subs) {
		r.subs = append(r.subs, make([]SeqSet, id+1-len(r.subs))...)
	}
	buf := &r.subs[p.Subflow]
	newSub := buf.Add(p.Seq, p.Seq+int64(p.PayloadLen))

	// Cumulative ACK for this subflow, echoing the sender timestamp.
	// A fully-duplicate segment raises the DSACK-style FlagEchoDup signal.
	// The ACK comes from the network's packet pool, so per-packet
	// acknowledgement allocates nothing.
	ack := r.host.NewPacket()
	ack.Src = r.host.ID()
	ack.Dst = p.Src
	ack.SrcPort = p.DstPort
	ack.DstPort = p.SrcPort
	ack.Size = uint16(headerBytes)
	ack.FlowID = p.FlowID
	ack.Subflow = p.Subflow
	ack.Flags = netem.FlagAck
	if newSub == 0 && p.PayloadLen > 0 {
		ack.Flags |= netem.FlagEchoDup
	}
	if p.Flags&netem.FlagCE != 0 {
		ack.Flags |= netem.FlagEchoCE
	}
	ack.AckSeq = buf.ContiguousFrom(0)
	ack.EchoTS = p.SentTS
	r.host.Send(ack)

	// Data-level delivery tracking.
	r.delivered += r.data.Add(p.DataSeq, p.DataSeq+int64(p.PayloadLen))
	if r.size >= 0 && !r.complete && r.delivered >= r.size {
		r.complete = true
		if r.OnComplete != nil {
			r.OnComplete()
		}
	}
}

// Close removes the receiver's host registration.
func (r *Receiver) Close() {
	r.host.Unregister(r.flowID, -1)
}
