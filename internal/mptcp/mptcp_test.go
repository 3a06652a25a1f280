package mptcp

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topology"
)

func fatTree4(eng *sim.Engine) *topology.FatTree {
	return topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig(), Seed: 1})
}

func TestMPTCPTransferCompletes(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	rng := sim.NewRNG(42)
	const size = 70000
	conn := Dial(DefaultConfig(), Options{
		SrcHost: ft.Hosts[0], DstHost: ft.Hosts[15],
		FlowID: 1, Size: size, RNG: rng,
	})
	var doneAt sim.Time
	conn.Receiver().OnComplete = func() { doneAt = eng.Now() }
	acked := false
	conn.OnAllAcked = func() { acked = true }
	conn.Start()
	eng.Run()

	if !conn.Receiver().Complete() {
		t.Fatal("transfer did not complete")
	}
	if conn.Receiver().Delivered() != size {
		t.Fatalf("delivered %d, want %d", conn.Receiver().Delivered(), size)
	}
	if !acked {
		t.Error("OnAllAcked did not fire")
	}
	if doneAt <= 0 {
		t.Error("no completion time recorded")
	}
	if got := conn.Stats().BytesSent; got < size {
		t.Errorf("bytes sent = %d, want >= %d", got, size)
	}
}

func TestMPTCPSpreadsAcrossSubflows(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	rng := sim.NewRNG(7)
	conn := Dial(DefaultConfig(), Options{
		SrcHost: ft.Hosts[0], DstHost: ft.Hosts[15],
		FlowID: 1, Size: 70000, RNG: rng,
	})
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("incomplete")
	}
	active := 0
	ports := map[uint16]bool{}
	for _, sub := range conn.Subflows() {
		if sub.Stats.SegmentsSent > 0 {
			active++
		}
	}
	if active < 4 {
		t.Errorf("only %d/8 subflows carried data for a 50-segment flow", active)
	}
	_ = ports
}

func TestMPTCPSubflowCountConfig(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	for _, n := range []int{1, 2, 4, 9} {
		cfg := DefaultConfig()
		cfg.Subflows = n
		conn := Dial(cfg, Options{
			SrcHost: ft.Hosts[0], DstHost: ft.Hosts[15],
			FlowID: uint64(100 + n), Size: 14000, RNG: sim.NewRNG(uint64(n)),
		})
		if len(conn.Subflows()) != n {
			t.Errorf("subflows = %d, want %d", len(conn.Subflows()), n)
		}
		conn.Start()
		eng.Run()
		if !conn.Receiver().Complete() {
			t.Errorf("n=%d: incomplete", n)
		}
	}
}

func TestMPTCPUnboundedFlowKeepsDelivering(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	conn := Dial(DefaultConfig(), Options{
		SrcHost: ft.Hosts[0], DstHost: ft.Hosts[15],
		FlowID: 1, Size: -1, RNG: sim.NewRNG(3),
	})
	conn.Start()
	eng.RunUntil(500 * sim.Millisecond)
	d1 := conn.Receiver().Delivered()
	eng.RunUntil(1000 * sim.Millisecond)
	d2 := conn.Receiver().Delivered()
	if d1 <= 0 {
		t.Fatal("no bytes delivered in 500ms")
	}
	if d2 <= d1 {
		t.Fatal("delivery stalled on unbounded flow")
	}
	// Goodput sanity: at most the access-link rate (100 Mb/s = 12.5 MB/s),
	// at least a tenth of it.
	rate := float64(d2) / 1.0 // bytes per second over 1s
	if rate > 13e6 || rate < 1.25e6 {
		t.Errorf("goodput = %.2f MB/s, want within (1.25, 13)", rate/1e6)
	}
}

func TestMPTCPDataStartAndSubflowBase(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	// Receiver expects 70000 bytes; the connection only carries
	// [30000, 70000) — the MMPTCP handover pattern.
	rcv := tcp.NewReceiver(tcp.DefaultConfig(), ft.Hosts[15], 1, 70000)
	conn := Dial(DefaultConfig(), Options{
		SrcHost: ft.Hosts[0], DstHost: ft.Hosts[15],
		FlowID: 1, Size: 70000, DataStart: 30000,
		SubflowBase: 1, RNG: sim.NewRNG(9),
		Receiver: rcv,
	})
	conn.Start()
	eng.Run()
	if rcv.Complete() {
		t.Fatal("receiver complete without the first 30000 bytes")
	}
	if got := rcv.Delivered(); got != 40000 {
		t.Fatalf("delivered = %d, want 40000", got)
	}
	// Now deliver the head as subflow 0 (what the PS phase would do).
	head := tcp.NewSender(tcp.DefaultConfig(), tcp.SenderOptions{
		Host: ft.Hosts[0], Dst: ft.Hosts[15].ID(), FlowID: 1, Subflow: 0,
		SrcPort: 9999, DstPort: 80,
		Source: &tcp.BytesSource{Size: 30000},
	})
	head.Start()
	eng.Run()
	if !rcv.Complete() {
		t.Fatal("receiver incomplete after head delivery")
	}
	if got := rcv.Delivered(); got != 70000 {
		t.Fatalf("delivered = %d, want 70000", got)
	}
}

// TestLIAIncrementCoupling checks the RFC 6356 algorithm directly: for
// two subflows with equal windows and RTTs in congestion avoidance,
// alpha = 1/2, so the aggregate growth per window of ACKs is half of
// what two independent Reno flows would add.
func TestLIAIncrementCoupling(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	cfg := DefaultConfig()
	cfg.Subflows = 2
	conn := Dial(cfg, Options{
		SrcHost: ft.Hosts[0], DstHost: ft.Hosts[15],
		FlowID: 1, Size: 1_400_000, RNG: sim.NewRNG(11),
	})
	conn.Start()
	eng.Run() // completes losslessly, giving every subflow an RTT sample
	if !conn.Receiver().Complete() {
		t.Fatal("setup transfer incomplete")
	}

	// Freeze both subflows at equal windows in congestion avoidance.
	mss := 1400.0
	const w = 70_000.0 // 50 segments
	for _, sub := range conn.subflows {
		sub.Cwnd = w
		sub.Ssthresh = w // Cwnd >= Ssthresh -> congestion avoidance
	}
	lia := &liaCC{conn: conn}
	sub := conn.subflows[0]

	// Expected alpha from RFC 6356 with the subflows' measured RTTs:
	// alpha = total * max_i(w_i/rtt_i^2) / (sum_i w_i/rtt_i)^2.
	var best, sumRatio float64
	for _, s := range conn.subflows {
		r := s.SRTT().Seconds()
		if v := s.Cwnd / (r * r); v > best {
			best = v
		}
		sumRatio += s.Cwnd / r
	}
	wantAlpha := (2 * w) * best / (sumRatio * sumRatio)
	if a := lia.alpha(2 * w); a < wantAlpha*0.999 || a > wantAlpha*1.001 {
		t.Errorf("alpha = %.4f, want %.4f (spec formula)", a, wantAlpha)
	}
	// With equal windows and near-equal paths alpha stays close to 1/2
	// (exactly 1/2 for identical RTTs, RFC 6356 section 3).
	if wantAlpha < 0.4 || wantAlpha > 0.9 {
		t.Errorf("alpha = %.3f outside the plausible band for symmetric windows", wantAlpha)
	}

	before := sub.Cwnd
	lia.OnAck(sub, int(mss))
	liaInc := sub.Cwnd - before
	wantInc := wantAlpha * mss * mss / (2 * w)
	if solo := mss * mss / w; wantInc > solo {
		wantInc = solo // LIA never exceeds Reno on the same subflow
	}
	if liaInc < wantInc*0.999 || liaInc > wantInc*1.001 {
		t.Errorf("LIA increment = %.3f bytes, want %.3f", liaInc, wantInc)
	}
	// The coupled increase must be clearly below independent Reno.
	renoInc := mss * mss / w
	if liaInc >= renoInc/2 {
		t.Errorf("LIA increment %.3f not clearly below Reno %.3f", liaInc, renoInc)
	}
}

// TestLIASharedBottleneckBounded is the integration-level sanity check:
// a coupled 2-subflow connection sharing one drop-tail bottleneck with a
// plain TCP flow neither starves nor utterly dominates. (Exact fairness
// under synchronised drop-tail losses additionally depends on SACK-style
// recovery, which NewReno lacks; RFC 6356's growth coupling is verified
// deterministically above.)
func TestLIASharedBottleneckBounded(t *testing.T) {
	eng := sim.NewEngine()
	link := topology.DefaultLinkConfig()
	link.RateBps = 1_000_000_000 // fast access links
	d := topology.NewDumbbell(eng, topology.DumbbellConfig{
		HostsPerSide:  2,
		Link:          link,
		BottleneckBps: 100_000_000,
	})
	cfg := DefaultConfig()
	cfg.Subflows = 2
	conn := Dial(cfg, Options{
		SrcHost: d.Hosts[0], DstHost: d.Hosts[2],
		FlowID: 1, Size: -1, RNG: sim.NewRNG(11),
	})
	rcv := tcp.NewReceiver(tcp.DefaultConfig(), d.Hosts[3], 2, -1)
	tcpSnd := tcp.NewSender(tcp.DefaultConfig(), tcp.SenderOptions{
		Host: d.Hosts[1], Dst: d.Hosts[3].ID(), FlowID: 2,
		SrcPort: 7777, DstPort: 80,
		Source: &tcp.BytesSource{Size: -1},
	})
	conn.Start()
	tcpSnd.Start()
	eng.RunUntil(5 * sim.Second)

	ratio := float64(conn.Receiver().Delivered()) / float64(rcv.Delivered())
	t.Logf("MPTCP/TCP share ratio = %.2f", ratio)
	if ratio < 0.5 || ratio > 3.5 {
		t.Errorf("share ratio %.2f outside sane co-existence bounds", ratio)
	}
	// The bottleneck must be near-saturated by the pair.
	total := conn.Receiver().Delivered() + rcv.Delivered()
	mbps := float64(total) * 8 / 5 / 1e6
	if mbps < 80 {
		t.Errorf("aggregate goodput %.1f Mb/s; bottleneck underutilised", mbps)
	}
}

func TestMPTCPRequiresRNG(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	defer func() {
		if recover() == nil {
			t.Error("Dial without RNG did not panic")
		}
	}()
	Dial(DefaultConfig(), Options{SrcHost: ft.Hosts[0], DstHost: ft.Hosts[1], FlowID: 1, Size: 100})
}

func TestMPTCPCloseUnregisters(t *testing.T) {
	eng := sim.NewEngine()
	ft := fatTree4(eng)
	conn := Dial(DefaultConfig(), Options{
		SrcHost: ft.Hosts[0], DstHost: ft.Hosts[15],
		FlowID: 1, Size: 70000, RNG: sim.NewRNG(1),
	})
	conn.Start()
	eng.RunUntil(2 * sim.Millisecond)
	conn.Close()
	eng.Run()
	// Whatever was in flight becomes unclaimed on both ends.
	if ft.Hosts[0].Unclaimed == 0 && ft.Hosts[15].Unclaimed == 0 {
		t.Error("expected unclaimed packets after Close mid-flight")
	}
}

func TestMPTCPSpreadsSubflowsAcrossInterfaces(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.NewMultiHomed(eng, topology.MultiHomedConfig{K: 4, Link: topology.DefaultLinkConfig()})
	conn := Dial(DefaultConfig(), Options{
		SrcHost: m.Hosts[0], DstHost: m.Hosts[15],
		FlowID: 1, Size: 280_000, RNG: sim.NewRNG(5),
	})
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("incomplete")
	}
	// Both uplinks of the dual-homed sender must have carried data.
	for i, up := range m.Hosts[0].Uplinks() {
		if up.Stats.TxPackets == 0 {
			t.Errorf("uplink %d idle; subflows not spread across interfaces", i)
		}
	}
}
