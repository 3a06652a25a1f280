package core

import (
	"testing"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// paperConfig is the paper's MMPTCP configuration: 8 LIA subflows after
// a switch at 100 KB of data.
func paperConfig() Config {
	return Config{MPTCP: mptcp.DefaultConfig(), Strategy: SwitchDataVolume, SwitchBytes: 100_000}
}

func fatTree4(eng *sim.Engine) *topology.FatTree {
	return topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig(), Seed: 1})
}

func dialFT(ft *topology.FatTree, cfg Config, flowID uint64, src, dst int, size int64, seed uint64) *Conn {
	return Dial(cfg, Options{
		SrcHost:   ft.Hosts[src],
		DstHost:   ft.Hosts[dst],
		FlowID:    flowID,
		Size:      size,
		PathCount: ft.PathCount(netem.NodeID(src), netem.NodeID(dst)),
		RNG:       sim.NewRNG(seed),
	})
}

func TestShortFlowStaysInPacketScatter(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	// 70 KB < 100 KB threshold: the paper expects short flows to finish
	// entirely inside the PS phase.
	conn := dialFT(ft, paperConfig(), 1, 0, 15, 70_000, 42)
	var doneAt sim.Time
	conn.Receiver().OnComplete = func() { doneAt = eng.Now() }
	acked := false
	conn.OnAllAcked = func() { acked = true }
	conn.Start()
	eng.Run()

	if !conn.Receiver().Complete() {
		t.Fatal("transfer did not complete")
	}
	if conn.Switched() {
		t.Error("70KB flow switched to MPTCP; must finish in PS phase")
	}
	if conn.MPTCP() != nil {
		t.Error("MPTCP connection created for a PS-only flow")
	}
	if !acked {
		t.Error("OnAllAcked did not fire")
	}
	if conn.Receiver().Delivered() != 70_000 {
		t.Errorf("delivered %d", conn.Receiver().Delivered())
	}
	if doneAt <= 0 {
		t.Error("no FCT recorded")
	}
	// Inter-pod in k=4: 4 paths, so the PS dup-ACK threshold is 4.
	if got := conn.PacketScatter().DupThresh(); got != 4 {
		t.Errorf("PS dup threshold = %d, want 4", got)
	}
}

func TestLongFlowSwitchesAtDataVolume(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	const size = 300_000
	conn := dialFT(ft, paperConfig(), 1, 0, 15, size, 7)
	switchFired := false
	conn.OnSwitch = func() { switchFired = true }
	acked := false
	conn.OnAllAcked = func() { acked = true }
	conn.Start()
	eng.Run()

	if !conn.Receiver().Complete() {
		t.Fatal("transfer did not complete")
	}
	if !conn.Switched() || !switchFired {
		t.Fatal("300KB flow did not switch to MPTCP")
	}
	if conn.SwitchedAt() <= 0 {
		t.Error("no switch time recorded")
	}
	if conn.MPTCP() == nil {
		t.Fatal("no MPTCP connection after switch")
	}
	if !acked {
		t.Error("OnAllAcked did not fire")
	}
	// The PS phase carried exactly the threshold bytes (no loss here).
	if got := conn.PacketScatter().Granted(); got != 100_000 {
		t.Errorf("PS granted %d bytes, want 100000", got)
	}
	// MPTCP subflows are numbered from 1 (PS holds subflow 0) and
	// carried the remainder.
	mp := conn.MPTCP()
	if got := mp.Stats().BytesSent; got < size-100_000 {
		t.Errorf("MPTCP phase sent %d bytes, want >= %d", got, size-100_000)
	}
	if conn.Receiver().Delivered() != size {
		t.Errorf("delivered %d, want %d", conn.Receiver().Delivered(), size)
	}
}

func TestFlowExactlyAtThresholdDoesNotSwitch(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	conn := dialFT(ft, paperConfig(), 1, 0, 15, 100_000, 3)
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("incomplete")
	}
	if conn.Switched() {
		t.Error("flow of exactly SwitchBytes switched; nothing remained to hand over")
	}
}

func TestUnboundedFlowSwitchesAndKeepsDelivering(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	conn := dialFT(ft, paperConfig(), 1, 0, 15, -1, 11)
	conn.Start()
	eng.RunUntil(500 * sim.Millisecond)
	if !conn.Switched() {
		t.Fatal("unbounded flow never switched")
	}
	d1 := conn.Receiver().Delivered()
	if d1 < 100_000 {
		t.Fatalf("delivered only %d in 500ms", d1)
	}
	eng.RunUntil(1000 * sim.Millisecond)
	if conn.Receiver().Delivered() <= d1 {
		t.Fatal("MPTCP phase stalled")
	}
	// PS phase must have drained: it stops at the threshold.
	if got := conn.PacketScatter().Granted(); got != 100_000 {
		t.Errorf("PS granted %d, want exactly the threshold", got)
	}
	if !conn.PacketScatter().Done() {
		t.Error("PS flow still active long after the switch")
	}
}

// dropWire is a programmable middlebox for deterministic loss and
// reordering in congestion-event tests.
type dropWire struct {
	eng  *sim.Engine
	id   netem.NodeID
	out  map[netem.NodeID]*netem.Link
	drop func(p *netem.Packet) bool
}

func (w *dropWire) ID() netem.NodeID { return w.id }
func (w *dropWire) Receive(p *netem.Packet, from *netem.Link) {
	if w.drop != nil && w.drop(p) {
		return
	}
	w.out[p.Dst].Enqueue(p)
}

func newWireNet(eng *sim.Engine) (a, b *netem.Host, w *dropWire) {
	a = netem.NewHost(eng, 0)
	b = netem.NewHost(eng, 1)
	w = &dropWire{eng: eng, id: 2, out: make(map[netem.NodeID]*netem.Link)}
	const rate = 1_000_000_000
	aw := netem.NewLink(eng, a, w, rate, 10*sim.Microsecond, 10000, netem.LayerHost)
	bw := netem.NewLink(eng, b, w, rate, 10*sim.Microsecond, 10000, netem.LayerHost)
	wa := netem.NewLink(eng, w, a, rate, 10*sim.Microsecond, 10000, netem.LayerHost)
	wb := netem.NewLink(eng, w, b, rate, 10*sim.Microsecond, 10000, netem.LayerHost)
	a.AttachUplink(aw)
	b.AttachUplink(bw)
	w.out[a.ID()] = wa
	w.out[b.ID()] = wb
	return a, b, w
}

func TestCongestionEventSwitchWire(t *testing.T) {
	eng := sim.NewEngine()
	a, b, w := newWireNet(eng)
	cfg := paperConfig()
	cfg.Strategy = SwitchCongestionEvent
	conn := Dial(cfg, Options{
		SrcHost: a, DstHost: b, FlowID: 1, Size: 400_000,
		PathCount: 1, RNG: sim.NewRNG(21),
	})
	dropped := false
	w.drop = func(p *netem.Packet) bool {
		if p.IsData() && p.Subflow == 0 && p.Seq == 14_000 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("incomplete")
	}
	if !conn.Switched() {
		t.Fatal("congestion event did not trigger the switch")
	}
	if conn.PacketScatter().Stats.FastRetransmits != 1 {
		t.Errorf("PS fast retransmits = %d, want 1", conn.PacketScatter().Stats.FastRetransmits)
	}
	// The switch happened at the congestion event, so the PS phase
	// carried less than the flow (new data stopped immediately).
	psBytes := conn.PacketScatter().Granted()
	if psBytes >= 400_000 {
		t.Errorf("PS granted %d; the switch should have capped it", psBytes)
	}
	if conn.MPTCP() == nil {
		t.Fatal("no MPTCP phase")
	}
}

func TestCongestionEventNoCongestionNeverSwitches(t *testing.T) {
	eng := sim.NewEngine()
	a, b, _ := newWireNet(eng)
	cfg := paperConfig()
	cfg.Strategy = SwitchCongestionEvent
	conn := Dial(cfg, Options{
		SrcHost: a, DstHost: b, FlowID: 1, Size: 400_000,
		PathCount: 1, RNG: sim.NewRNG(5),
	})
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("incomplete")
	}
	if conn.Switched() {
		t.Error("lossless congestion-event flow switched")
	}
	if conn.Stats().Timeouts != 0 || conn.Stats().FastRetransmits != 0 {
		t.Error("unexpected congestion on clean path")
	}
}

func TestPSReorderingToleranceEndToEnd(t *testing.T) {
	// Scattered packets over a jittery path: the raised threshold must
	// avoid spurious retransmissions where plain TCP's 3 would not.
	run := func(pathCount int) *Conn {
		eng := sim.NewEngine()
		a, b, w := newWireNet(eng)
		rng := sim.NewRNG(17)
		origOut := w.out[b.ID()]
		cfg := paperConfig()
		conn := Dial(cfg, Options{
			SrcHost: a, DstHost: b, FlowID: 1, Size: 70_000,
			PathCount: pathCount, RNG: rng,
		})
		// Delay every 5th data packet by 200us on the wire.
		count := 0
		w.drop = func(p *netem.Packet) bool {
			if p.IsData() {
				count++
				if count%5 == 0 {
					pp := p
					w.eng.Schedule(200*sim.Microsecond, func() { origOut.Enqueue(pp) })
					return true // swallowed here, re-enqueued later
				}
			}
			return false
		}
		conn.Start()
		eng.Run()
		if !conn.Receiver().Complete() {
			t.Fatalf("pathCount=%d: incomplete", pathCount)
		}
		return conn
	}
	standard := run(1)  // dup thresh 3
	tolerant := run(30) // dup thresh 30
	if standard.Stats().Retransmissions == 0 {
		t.Error("expected spurious retransmissions with threshold 3 under reordering")
	}
	if tolerant.Stats().Retransmissions != 0 {
		t.Errorf("raised threshold still produced %d retransmissions",
			tolerant.Stats().Retransmissions)
	}
}

func TestMMPTCPScatterSpreadsOverCoreLinks(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	conn := dialFT(ft, paperConfig(), 1, 0, 15, 70_000, 99)
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("incomplete")
	}
	// The PS phase must have used more than one agg-layer link out of
	// pod 0 (a fixed-path TCP flow would use exactly one).
	used := 0
	for _, l := range ft.LinksAtLayer(netem.LayerAgg) {
		if l.Stats.TxPackets > 0 {
			used++
		}
	}
	if used < 4 {
		t.Errorf("scattered flow used %d agg-layer links, want >= 4", used)
	}
}

func TestStrategyString(t *testing.T) {
	if SwitchDataVolume.String() != "data-volume" ||
		SwitchCongestionEvent.String() != "congestion-event" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy renders empty")
	}
}

func TestMMPTCPStatsAggregation(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	conn := dialFT(ft, paperConfig(), 1, 0, 15, 300_000, 31)
	conn.Start()
	eng.Run()
	st := conn.Stats()
	if st.BytesSent < 300_000 {
		t.Errorf("aggregated bytes sent = %d, want >= 300000", st.BytesSent)
	}
	ps := conn.PacketScatter().Stats
	mp := conn.MPTCP().Stats()
	if st.SegmentsSent != ps.SegmentsSent+mp.SegmentsSent {
		t.Error("stats aggregation mismatch")
	}
}

func TestMMPTCPClose(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	conn := dialFT(ft, paperConfig(), 1, 0, 15, 300_000, 8)
	conn.Start()
	eng.RunUntil(20 * sim.Millisecond)
	conn.Close()
	eng.Run()
	if conn.Receiver().Complete() {
		t.Error("closed connection completed")
	}
}

var _ tcp.DataSource = (*psSource)(nil)

func TestPSScattersAcrossInterfacesWhenMultiHomed(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.NewMultiHomed(eng, topology.MultiHomedConfig{K: 4, Link: topology.DefaultLinkConfig()})
	conn := Dial(paperConfig(), Options{
		SrcHost: m.Hosts[0], DstHost: m.Hosts[15],
		FlowID: 1, Size: 70_000,
		PathCount: m.PathCount(0, 15), RNG: sim.NewRNG(3),
	})
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("incomplete")
	}
	if conn.Switched() {
		t.Fatal("short flow switched")
	}
	// The PS phase alone must have used both NICs.
	for i, up := range m.Hosts[0].Uplinks() {
		if up.Stats.TxPackets == 0 {
			t.Errorf("uplink %d idle during packet scatter", i)
		}
	}
}

func TestAdaptiveThresholdModeEndToEnd(t *testing.T) {
	// The RR-TCP-like mode (§2 approach 2) must converge: the scattered
	// flow's spurious retransmissions raise the threshold until
	// reordering is tolerated, without any topology knowledge.
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	cfg := paperConfig()
	cfg.Threshold = ThresholdAdaptive
	// A large PS budget so the scattered phase sees enough reordering.
	cfg.SwitchBytes = 2_000_000
	conn := dialFT(ft, cfg, 1, 0, 15, 2_000_000, 42)
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("incomplete")
	}
	ps := conn.PacketScatter()
	if ps.Stats.SpuriousSignals == 0 {
		t.Skip("no reordering observed on this seed; nothing to adapt to")
	}
	if ps.DupThresh() <= cfg.MPTCP.TCP.DupAckThreshold && ps.DupThresh() <= 3 {
		t.Errorf("adaptive threshold never rose: %d", ps.DupThresh())
	}
}

func TestThresholdModeString(t *testing.T) {
	if ThresholdTopology.String() != "topology" || ThresholdAdaptive.String() != "adaptive" {
		t.Error("threshold mode names wrong")
	}
	if ThresholdMode(7).String() == "" {
		t.Error("unknown mode renders empty")
	}
}
