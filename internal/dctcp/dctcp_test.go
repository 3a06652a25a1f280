package dctcp

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// buildDumbbell returns a dumbbell whose bottleneck marks ECN above k
// packets of queue.
func buildDumbbell(eng *sim.Engine, k int) *topology.Dumbbell {
	link := topology.DefaultLinkConfig()
	link.RateBps = 1_000_000_000
	link.ECNThreshold = 0 // access links do not mark
	d := topology.NewDumbbell(eng, topology.DumbbellConfig{
		HostsPerSide:  2,
		Link:          link,
		BottleneckBps: 100_000_000,
	})
	d.BottleneckLR.ECNThreshold = k
	d.BottleneckRL.ECNThreshold = k
	return d
}

func runLongFlow(t *testing.T, withDCTCP bool, k int) (*topology.Dumbbell, *tcp.Sender, *tcp.Receiver) {
	t.Helper()
	eng := sim.NewEngine()
	d := buildDumbbell(eng, k)
	rcv := tcp.NewReceiver(d.Hosts[2], 1, -1)
	opt := tcp.SenderOptions{
		Host: d.Hosts[0], Dst: d.Hosts[2].ID(), FlowID: 1,
		SrcPort: 10000, DstPort: 80,
		Source: &tcp.BytesSource{Size: -1},
	}
	if withDCTCP {
		opt.CC = &CC{}
	}
	snd := tcp.NewSender(opt)
	snd.Start()
	eng.RunUntil(3 * sim.Second)
	return d, snd, rcv
}

func TestDCTCPKeepsQueueShort(t *testing.T) {
	const k = 10
	_, _, _ = runLongFlow(t, true, k)

	dct, dctSnd, dctRcv := runLongFlow(t, true, k)
	reno, renoSnd, renoRcv := runLongFlow(t, false, 0)

	// Both must drive the bottleneck near capacity.
	dctMbps := float64(dctRcv.Delivered()) * 8 / 3 / 1e6
	renoMbps := float64(renoRcv.Delivered()) * 8 / 3 / 1e6
	if dctMbps < 80 {
		t.Errorf("DCTCP goodput = %.1f Mb/s, want near 100", dctMbps)
	}
	if renoMbps < 80 {
		t.Errorf("Reno goodput = %.1f Mb/s, want near 100", renoMbps)
	}
	// DCTCP's whole point: the standing queue stays near K while Reno
	// fills the buffer until drop-tail loss.
	dctQ := dct.BottleneckLR.Stats.MaxQueue
	renoQ := reno.BottleneckLR.Stats.MaxQueue
	if dctQ >= renoQ {
		t.Errorf("DCTCP max queue %d >= Reno max queue %d", dctQ, renoQ)
	}
	if dctQ > 5*k {
		t.Errorf("DCTCP max queue %d far above the marking threshold %d", dctQ, k)
	}
	// DCTCP avoids loss entirely in steady state on a clean path.
	if dct.BottleneckLR.Stats.Drops > renoSnd.Stats.Retransmissions {
		t.Errorf("DCTCP caused %d drops", dct.BottleneckLR.Stats.Drops)
	}
	if dctSnd.Stats.Timeouts > 0 {
		t.Errorf("DCTCP suffered %d timeouts on a clean path", dctSnd.Stats.Timeouts)
	}
}

func TestDCTCPAlphaConverges(t *testing.T) {
	eng := sim.NewEngine()
	d := buildDumbbell(eng, 10)
	cc := &CC{}
	rcv := tcp.NewReceiver(d.Hosts[2], 1, -1)
	snd := tcp.NewSender(tcp.SenderOptions{
		Host: d.Hosts[0], Dst: d.Hosts[2].ID(), FlowID: 1,
		SrcPort: 10000, DstPort: 80,
		Source: &tcp.BytesSource{Size: -1},
		CC:     cc,
	})
	snd.Start()
	eng.RunUntil(3 * sim.Second)
	_ = rcv
	if cc.AlphaUpdates < 10 {
		t.Fatalf("alpha updated only %d times", cc.AlphaUpdates)
	}
	// In steady state only a small fraction of packets is marked.
	if a := cc.alpha; a <= 0 || a >= 0.9 {
		t.Errorf("alpha = %.3f, want converged into (0, 0.9)", a)
	}
	if cc.Cuts == 0 {
		t.Error("no proportional cuts despite marking")
	}
}

func TestDCTCPCutIsProportional(t *testing.T) {
	// Feed the CC synthetic echoes: with alpha converged low, a mark
	// must shave far less than half the window.
	eng := sim.NewEngine()
	d := buildDumbbell(eng, 10)
	cc := &CC{}
	snd := tcp.NewSender(tcp.SenderOptions{
		Host: d.Hosts[0], Dst: d.Hosts[2].ID(), FlowID: 1,
		SrcPort: 10000, DstPort: 80,
		Source: &tcp.BytesSource{Size: -1},
		CC:     cc,
	})
	snd.Start() // puts the initial window in flight
	cc.initialized = true
	cc.alpha = 0.1
	cc.cutEnd = 0
	cc.windowEnd = 1 << 40 // keep alpha frozen during this probe
	before := snd.Cwnd
	cc.OnECNEcho(snd, 1400, true)
	if snd.Cwnd >= before {
		t.Fatal("no cut on mark")
	}
	want := before * (1 - 0.05)
	if snd.Cwnd < want*0.999 || snd.Cwnd > want*1.001 {
		t.Errorf("cwnd after cut = %.0f, want %.0f (alpha/2 proportional)", snd.Cwnd, want)
	}
	// Second mark in the same window must not cut again.
	mid := snd.Cwnd
	cc.OnECNEcho(snd, 1400, true)
	if snd.Cwnd < mid*0.999 {
		t.Error("second cut within one window")
	}
	if cc.Cuts != 1 {
		t.Errorf("cuts = %d, want 1", cc.Cuts)
	}
}

func TestECNEchoPlumbing(t *testing.T) {
	// CE set by a queue above threshold must round-trip into the
	// sender's CC via the receiver echo.
	eng := sim.NewEngine()
	d := buildDumbbell(eng, 1) // mark aggressively
	cc := &CC{}
	rcv := tcp.NewReceiver(d.Hosts[2], 1, 700_000)
	snd := tcp.NewSender(tcp.SenderOptions{
		Host: d.Hosts[0], Dst: d.Hosts[2].ID(), FlowID: 1,
		SrcPort: 10000, DstPort: 80,
		Source: &tcp.BytesSource{Size: 700_000},
		CC:     cc,
	})
	snd.Start()
	eng.Run()
	if !rcv.Complete() {
		t.Fatal("incomplete")
	}
	if cc.Cuts == 0 {
		t.Error("no ECN reaction despite aggressive marking")
	}
	_ = netem.FlagAck
}
