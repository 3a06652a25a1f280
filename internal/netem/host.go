package netem

import (
	"fmt"

	"repro/internal/sim"
)

// Endpoint is the interface implemented by transport endpoints (TCP
// senders and receivers, MPTCP subflows, MMPTCP packet-scatter flows).
// A host demultiplexes each received packet to the endpoint registered
// under the packet's (FlowID, Subflow) pair.
type Endpoint interface {
	HandlePacket(p *Packet)
}

// endpointTable maps (flow, subflow) to an endpoint: open addressing with
// linear probing over a power-of-two slot array allocated at the first
// insert and kept at most half full, and backshift deletion, so probe
// runs hold no tombstones. A host serves a handful of connections, so a
// lookup is a multiply and a compare where the generic map hashed twelve
// bytes — twice for a packet falling back to the connection-level endpoint.
type endpointTable struct {
	slots []endpointSlot // ep == nil marks an empty slot
	n     int
}

type endpointSlot struct {
	flow uint64
	ep   Endpoint
	sub  int8
}

// home returns the slot (flow, sub) hashes to (Fibonacci hashing).
func (t *endpointTable) home(flow uint64, sub int8) int {
	h := (flow ^ uint64(uint8(sub))<<32) * 0x9e3779b97f4a7c15
	return int(h>>32) & (len(t.slots) - 1)
}

// find returns the index of the slot holding (flow, sub) or, when it is
// not bound, of the empty slot ending its probe run. slots is non-empty.
func (t *endpointTable) find(flow uint64, sub int8) int {
	i := t.home(flow, sub)
	for s := &t.slots[i]; s.ep != nil && (s.flow != flow || s.sub != sub); s = &t.slots[i] {
		i = (i + 1) & (len(t.slots) - 1)
	}
	return i
}

// get returns the endpoint bound to (flow, sub), or nil.
func (t *endpointTable) get(flow uint64, sub int8) Endpoint {
	if t.n == 0 {
		return nil
	}
	return t.slots[t.find(flow, sub)].ep
}

// put binds (flow, sub) to ep and reports whether it was free to bind.
func (t *endpointTable) put(flow uint64, sub int8, ep Endpoint) bool {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots, t.n = make([]endpointSlot, max(8, 2*len(old))), 0
		for _, s := range old {
			if s.ep != nil {
				t.put(s.flow, s.sub, s.ep)
			}
		}
	}
	i := t.find(flow, sub)
	if t.slots[i].ep != nil {
		return false
	}
	t.slots[i] = endpointSlot{flow, ep, sub}
	t.n++
	return true
}

// remove unbinds (flow, sub) if bound, then shifts the rest of the probe
// run back over the hole wherever that keeps an entry reachable from its
// home slot.
func (t *endpointTable) remove(flow uint64, sub int8) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	i := t.find(flow, sub)
	if t.slots[i].ep == nil {
		return
	}
	for j := (i + 1) & mask; t.slots[j].ep != nil; j = (j + 1) & mask {
		// Slot j may fill the hole at i unless its home lies cyclically
		// within (i, j].
		if h := t.home(t.slots[j].flow, t.slots[j].sub); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = endpointSlot{}
	t.n--
}

// Host is an end system: it terminates one or more access links (more
// than one on multi-homed topologies) and demultiplexes packets to the
// transport endpoints registered on it.
type Host struct {
	id        NodeID
	eng       *sim.Engine
	uplinks   []*Link
	uplinkBuf [2]*Link // backs uplinks up to dual homing
	endpoints endpointTable

	// pool recycles packets: transports allocate from it via NewPacket,
	// and Receive returns every delivered packet to it once the endpoint
	// has consumed it. Nil disables recycling.
	pool *PacketPool

	// Stats
	RxPackets int64
	TxPackets int64
	Unclaimed int64 // packets with no registered endpoint (late/stale)
}

// NewHost creates a host with the given identifier. Uplinks are attached
// by the topology builder via AttachUplink.
func NewHost(eng *sim.Engine, id NodeID) *Host { return new(Host).Init(eng, id) }

// Init is NewHost in place, for builders that allocate a fabric's hosts
// as one slab. h must be zero and must not move afterwards.
func (h *Host) Init(eng *sim.Engine, id NodeID) *Host {
	*h = Host{id: id, eng: eng}
	h.uplinks = h.uplinkBuf[:0]
	return h
}

// ID returns the host's node identifier.
func (h *Host) ID() NodeID { return h.id }

// Engine returns the simulation engine the host runs on.
func (h *Host) Engine() *sim.Engine { return h.eng }

// SetPool installs the packet free list shared by the host's network;
// nil (the default) disables recycling.
func (h *Host) SetPool(pp *PacketPool) { h.pool = pp }

// Rebind repoints the host at a shard's engine and packet pool, so
// transports constructed against it schedule onto the owning shard's
// heap and recycle into a pool that shard alone touches. Sequential
// runs never call it.
func (h *Host) Rebind(eng *sim.Engine, pp *PacketPool) { h.eng, h.pool = eng, pp }

// NewPacket returns a zeroed packet for transmission, recycled from the
// network's pool when one is available. Transport endpoints allocate
// every outgoing packet through the host so delivery terminals can hand
// the memory back.
func (h *Host) NewPacket() *Packet { return h.pool.Get() }

// AttachUplink adds an access link whose source is this host. The first
// attached uplink is the default interface.
func (h *Host) AttachUplink(l *Link) {
	if l.Src() != Node(h) {
		panic("netem: uplink source is not this host")
	}
	h.uplinks = append(h.uplinks, l)
}

// Uplinks returns the host's access links (length > 1 only on
// multi-homed topologies).
func (h *Host) Uplinks() []*Link { return h.uplinks }

// Register binds an endpoint to (flowID, subflow) so that packets
// addressed to it are delivered. Registering over an existing binding
// panics: endpoint identifiers must be unique by construction.
func (h *Host) Register(flowID uint64, subflow int8, ep Endpoint) {
	if !h.endpoints.put(flowID, subflow, ep) {
		panic(fmt.Sprintf("netem: duplicate endpoint registration flow=%d sub=%d on host %d", flowID, subflow, h.id))
	}
}

// Unregister removes the binding for (flowID, subflow), if present.
func (h *Host) Unregister(flowID uint64, subflow int8) {
	h.endpoints.remove(flowID, subflow)
}

// Reset clears endpoint registrations and statistics for run-instance
// reuse. Transports unregister themselves on Close, so after a completed
// run the endpoint table is already empty; clearing it here keeps reuse
// safe even if an endpoint was left registered.
func (h *Host) Reset() {
	clear(h.endpoints.slots)
	h.endpoints.n = 0
	h.RxPackets = 0
	h.TxPackets = 0
	h.Unclaimed = 0
}

// Send transmits a packet out of the host's default interface.
func (h *Host) Send(p *Packet) { h.SendOn(p, 0) }

// SendOn transmits a packet out of interface iface (for multi-homed
// hosts). An out-of-range interface panics: callers choose interfaces
// from Uplinks and a mismatch is a programming error.
func (h *Host) SendOn(p *Packet, iface int) {
	if iface < 0 || iface >= len(h.uplinks) {
		panic(fmt.Sprintf("netem: host %d has no interface %d", h.id, iface))
	}
	h.TxPackets++
	h.uplinks[iface].Enqueue(p)
}

// Receive implements Node: it demultiplexes the packet to the endpoint
// registered under its (FlowID, Subflow) pair, then recycles it — host
// delivery is a packet's terminal point, so endpoints must copy out any
// fields they keep beyond HandlePacket. Packets for unknown endpoints
// are counted and discarded, which is what happens to segments that
// arrive after a connection has been torn down.
func (h *Host) Receive(p *Packet, from *Link) {
	h.RxPackets++
	ep := h.endpoints.get(uint64(p.FlowID), p.Subflow)
	if ep == nil {
		// Fall back to the connection-level endpoint (subflow -1), used by
		// receivers that accept every subflow of a connection.
		ep = h.endpoints.get(uint64(p.FlowID), -1)
	}
	if ep != nil {
		ep.HandlePacket(p)
	} else {
		h.Unclaimed++
	}
	h.pool.Put(p)
}
