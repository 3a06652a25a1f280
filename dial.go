package mmptcp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dctcp"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Conn is the protocol-independent view of one simulated connection that
// the experiment runner drives. *mptcp.Connection and *core.Conn satisfy
// it as they are; plain TCP and DCTCP pair a sender with a receiver.
type Conn interface {
	// Start begins transmission.
	Start()
	// Receiver returns the receive endpoint (completion, delivered bytes).
	Receiver() *tcp.Receiver
	// Stats aggregates sender-side statistics across subflows/phases.
	Stats() tcp.SenderStats
	// RedialStats reports subflow re-dial attempts and how many
	// replacement subflows recovered (acknowledged data). Always zero
	// for single-path transports and with recovery disabled.
	RedialStats() (redials, recovered int)
	// Close releases endpoints and timers.
	Close()
}

// DialConfig identifies one flow for Dial.
type DialConfig struct {
	FlowID uint64 // at most math.MaxUint32: packets carry 32-bit flow IDs
	Src    int
	Dst    int
	Size   int64 // -1 for unbounded
	RNG    *sim.RNG

	// Set by the run harness only. onAllAcked, when non-nil, fires once
	// when the sender side has had every byte acknowledged. recorder,
	// when non-nil, receives the flow's structured trace events.
	// observer, when non-nil with Config.Transport.DeferPhaseSwitch,
	// supplies the routing convergence signal MMPTCP's phase switch
	// consults.
	onAllAcked func()
	recorder   *trace.Recorder
	observer   core.ConvergenceObserver
}

// Dial creates a connection of the configured protocol between two hosts
// of the network. It is exported so examples and tools can drive single
// flows without the full experiment harness. Each endpoint schedules on
// its own host's engine: the engine the network was built on, or the
// owning shard's under a sharded fabric.
func Dial(net *topology.Network, cfg Config, d DialConfig) (Conn, error) {
	if err := cfg.resolve(false); err != nil {
		return nil, err
	}
	if n := len(net.Hosts); d.Src < 0 || d.Src >= n || d.Dst < 0 || d.Dst >= n {
		return nil, fmt.Errorf("mmptcp: DialConfig.Src %d or Dst %d outside the network's %d hosts", d.Src, d.Dst, n)
	}
	if d.RNG == nil {
		return nil, fmt.Errorf("mmptcp: DialConfig.RNG is nil")
	}
	if d.FlowID > math.MaxUint32 {
		return nil, fmt.Errorf("mmptcp: DialConfig.FlowID %d above %d: packets carry 32-bit flow IDs", d.FlowID, uint32(math.MaxUint32))
	}
	return dial(net, &cfg, d), nil
}

// dial is Dial on a resolved config and a checked DialConfig — the run
// harness's path, with nothing left that can fail. The multipath
// protocols share one mptcp.Config, which MMPTCP opens unchanged at its
// phase switch.
func dial(net *topology.Network, cfg *Config, d DialConfig) Conn {
	src, dst := net.Hosts[d.Src], net.Hosts[d.Dst]
	mp := mptcp.Config{
		Subflows:     cfg.Subflows,
		DeadRTOs:     cfg.Transport.DeadRTOs,
		RedialBudget: cfg.Transport.RedialBudget,
	}
	switch cfg.Protocol {
	case ProtoMPTCP:
		conn := mptcp.Dial(mp, mptcp.Options{
			SrcHost:  src,
			DstHost:  dst,
			FlowID:   d.FlowID,
			Size:     d.Size,
			RNG:      d.RNG,
			Recorder: d.recorder,
		})
		conn.OnAllAcked = d.onAllAcked
		return conn
	case ProtoMMPTCP:
		conn := core.Dial(core.Config{
			MPTCP:            mp,
			Strategy:         cfg.Strategy,
			SwitchBytes:      cfg.SwitchBytes,
			Threshold:        cfg.PSThreshold,
			DeferPhaseSwitch: cfg.Transport.DeferPhaseSwitch,
		}, core.Options{
			SrcHost:   src,
			DstHost:   dst,
			FlowID:    d.FlowID,
			Size:      d.Size,
			PathCount: net.PathCount(netem.NodeID(d.Src), netem.NodeID(d.Dst)),
			RNG:       d.RNG,
			Recorder:  d.recorder,
			Observer:  d.observer,
		})
		conn.OnAllAcked = d.onAllAcked
		return conn
	default: // ProtoTCP, ProtoDCTCP: resolve admits nothing else
		rcv := tcp.NewReceiver(dst, d.FlowID, d.Size)
		opt := tcp.SenderOptions{
			Host:     src,
			Dst:      dst.ID(),
			FlowID:   d.FlowID,
			SrcPort:  uint16(10000 + d.RNG.Intn(50000)),
			DstPort:  80,
			Source:   &tcp.BytesSource{Size: d.Size},
			Recorder: d.recorder,
		}
		if cfg.Protocol == ProtoDCTCP {
			opt.CC = &dctcp.CC{}
		}
		snd := tcp.NewSender(opt)
		snd.OnAllAcked = d.onAllAcked
		return &tcpConn{snd, rcv}
	}
}

// tcpConn is the one adaptor left: a single-path sender and its receiver.
type tcpConn struct {
	*tcp.Sender
	rcv *tcp.Receiver
}

func (c *tcpConn) Receiver() *tcp.Receiver { return c.rcv }
func (c *tcpConn) Stats() tcp.SenderStats  { return c.Sender.Stats }
func (c *tcpConn) RedialStats() (int, int) { return 0, 0 }
func (c *tcpConn) Close()                  { c.Sender.Close(); c.rcv.Close() }

// MMPTCPConn exposes the phase-level API of an MMPTCP connection dialed
// through Dial (switch time, PS sender), for examples and ablations.
func MMPTCPConn(c Conn) (*core.Conn, bool) {
	mc, ok := c.(*core.Conn)
	return mc, ok
}
