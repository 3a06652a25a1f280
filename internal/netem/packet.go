// Package netem implements the packet-level network elements of the
// simulator: packets, unidirectional links with drop-tail FIFO queues and
// store-and-forward serialisation, hosts that demultiplex packets to
// transport endpoints, and switches that forward with hash-based ECMP
// (RFC 2992 style) over equal-cost next-hop sets.
//
// Everything is single-threaded on top of a sim.Engine. Layering follows
// the gopacket philosophy of explicit flows and endpoints: a packet's
// 5-tuple identifies its flow for ECMP purposes, while demultiplexing at
// hosts uses an explicit flow identifier (the simulation equivalent of a
// connection lookup).
package netem

import (
	"fmt"

	"repro/internal/sim"
)

// NodeID identifies a node (host or switch) in the simulated network.
type NodeID int32

// Flag bits carried by a Packet. The low two say what the packet is; the
// rest are the per-packet booleans, packed here so a Packet fits one cache
// line.
const (
	FlagData    uint8 = 1 << iota // carries payload bytes
	FlagAck                       // carries a cumulative acknowledgement
	FlagRetx                      // retransmitted data segment (stats only)
	FlagCE                        // ECN congestion experienced, set at enqueue
	FlagEchoCE                    // receiver's echo of FlagCE on the ACK
	FlagEchoDup                   // ACK for an all-duplicate segment (DSACK-style)
)

// Packet is a simulated network packet. Packets are allocated per
// transmission and carry both the routing fields used by switches and the
// transport fields used by the TCP/MPTCP/MMPTCP endpoints. A Packet must
// not be mutated after being handed to a link, except by the eventual
// receiving endpoint.
//
// A Packet is exactly 64 bytes: Go's 64-byte size class and one cache
// line. Every live packet of a run is one of these, so at paper scale
// they are the largest share of a run's allocation. The narrow fields
// are ranged by construction:
//   - Size and PayloadLen are uint16: the largest packet is one MSS plus
//     headers (1,460 bytes: tcp.MSS plus 60 bytes of headers).
//   - FlowID is uint32: mmptcp.Dial rejects larger identifiers, and the
//     run harness numbers flows from 1.
//   - Hops is uint8: switches drop a packet past maxHops (32).
//   - Subflow, Flags and Hops share one word with one byte of padding;
//     Flags holds six bits (see FlagData through FlagEchoDup).
//
// No field overlays another; they are narrowed, not unioned.
type Packet struct {
	// Routing fields (the ECMP 5-tuple; protocol is implicitly TCP).
	Src, Dst         NodeID
	SrcPort, DstPort uint16

	// Size is the total on-wire size in bytes (headers + payload), and
	// PayloadLen the payload bytes carried (0 for pure ACKs).
	Size       uint16
	PayloadLen uint16

	// FlowID identifies the connection for endpoint demultiplexing, and
	// Subflow the subflow within an MPTCP/MMPTCP connection. Using an
	// explicit identifier rather than the port pair lets packet-scatter
	// flows randomise their source port per packet without breaking
	// receive-side demultiplexing, mirroring how MPTCP identifies
	// subflows by token rather than by 4-tuple alone.
	FlowID  uint32
	Subflow int8

	// Flags holds the FlagData..FlagEchoDup bits. FlagEchoDup is set on
	// an ACK when the data segment that triggered it carried only
	// already-received bytes — the DSACK-style signal (RR-TCP, the
	// paper's §2 alternative) that a retransmission was spurious, used
	// by adaptive duplicate-ACK thresholds. FlagRetx marks retransmitted
	// data segments (stats only; RTT sampling uses timestamps and is
	// immune to retransmission ambiguity). FlagCE is the ECN mark set by
	// queues whose ECN threshold is exceeded (the DCTCP extension), and
	// FlagEchoCE its receiver echo on the returning ACK.
	Flags uint8

	// Hops counts traversed links, as a routing-loop backstop.
	Hops uint8

	// Subflow-level sequence space (bytes).
	Seq    int64 // sequence number of first payload byte
	AckSeq int64 // cumulative ACK (valid when FlagAck set)

	// Data-level (connection-wide) sequence space for MPTCP/MMPTCP.
	DataSeq int64 // data sequence of first payload byte

	// EchoTS carries the timestamp echoed by the receiver for RTT
	// estimation (TCP timestamps, RFC 7323 style).
	SentTS sim.Time // stamped by the sender on transmission
	EchoTS sim.Time // echoed by the receiver in ACKs
}

// IsData reports whether the packet carries payload bytes.
func (p *Packet) IsData() bool { return p.Flags&FlagData != 0 }

// IsAck reports whether the packet carries an acknowledgement.
func (p *Packet) IsAck() bool { return p.Flags&FlagAck != 0 }

// String renders a compact single-line summary for traces and tests.
func (p *Packet) String() string {
	kind := "?"
	switch {
	case p.IsData():
		kind = "DATA"
	case p.IsAck():
		kind = "ACK"
	}
	return fmt.Sprintf("%s flow=%d/%d %d:%d->%d:%d seq=%d len=%d ack=%d",
		kind, p.FlowID, p.Subflow, p.Src, p.SrcPort, p.Dst, p.DstPort,
		p.Seq, p.PayloadLen, p.AckSeq)
}

// FlowHash returns the ECMP hash of the packet's 5-tuple mixed with a
// per-switch seed. It is deterministic: the same 5-tuple always hashes to
// the same value at the same switch, which is exactly the property that
// per-packet source-port randomisation exploits to scatter packets.
func (p *Packet) FlowHash(seed uint32) uint32 {
	// FNV-1a over the 5-tuple bytes, seeded and fully unrolled: this runs
	// once per packet per switch hop, and a per-call mixing closure would
	// both allocate nothing yet keep the whole function from inlining.
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32) ^ seed
	h = (h ^ uint32(byte(p.Src))) * prime32
	h = (h ^ uint32(byte(p.Src>>8))) * prime32
	h = (h ^ uint32(byte(p.Src>>16))) * prime32
	h = (h ^ uint32(byte(p.Src>>24))) * prime32
	h = (h ^ uint32(byte(p.Dst))) * prime32
	h = (h ^ uint32(byte(p.Dst>>8))) * prime32
	h = (h ^ uint32(byte(p.Dst>>16))) * prime32
	h = (h ^ uint32(byte(p.Dst>>24))) * prime32
	h = (h ^ uint32(byte(p.SrcPort))) * prime32
	h = (h ^ uint32(byte(p.SrcPort>>8))) * prime32
	h = (h ^ uint32(byte(p.DstPort))) * prime32
	h = (h ^ uint32(byte(p.DstPort>>8))) * prime32
	// FNV's low bits are linear in the input bits, which would make the
	// modulo-N choices of consecutive switches perfectly correlated.
	// A murmur3-style avalanche finaliser decorrelates them.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
