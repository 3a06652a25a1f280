package tcp

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

func TestTransferNoLoss(t *testing.T) {
	tn := newTestNet()
	const size = 70000 // the paper's short-flow size: exactly 50 segments
	snd, rcv := tn.transfer(1, size)
	var doneAt sim.Time
	rcv.OnComplete = func() { doneAt = tn.eng.Now() }
	allAcked := false
	snd.OnAllAcked = func() { allAcked = true }
	snd.Start()
	tn.eng.Run()

	if !rcv.Complete() {
		t.Fatal("transfer did not complete")
	}
	if rcv.Delivered() != size {
		t.Fatalf("delivered %d bytes, want %d", rcv.Delivered(), size)
	}
	if !allAcked || !snd.Done() {
		t.Fatal("sender did not observe completion")
	}
	if snd.Stats.Retransmissions != 0 || snd.Stats.Timeouts != 0 {
		t.Errorf("lossless transfer had %d retx, %d timeouts",
			snd.Stats.Retransmissions, snd.Stats.Timeouts)
	}
	if snd.Stats.SegmentsSent != 50 {
		t.Errorf("segments sent = %d, want 50", snd.Stats.SegmentsSent)
	}
	// Slow start from IW=2 over ~40us RTT: several RTTs, well under 10ms.
	if doneAt <= 0 || doneAt > 10*sim.Millisecond {
		t.Errorf("FCT = %v, want (0, 10ms]", doneAt)
	}
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	tn := newTestNet()
	snd, rcv := tn.transfer(1, 70000)
	// Drop the first transmission of seq 14000 (the 11th segment), when
	// the window is large enough to generate 3 duplicate ACKs.
	dropped := false
	tn.w.drop = func(p *netem.Packet) bool {
		if p.IsData() && p.Seq == 14000 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd.Start()
	tn.eng.Run()

	if !rcv.Complete() {
		t.Fatal("transfer did not complete")
	}
	if snd.Stats.FastRetransmits != 1 {
		t.Errorf("fast retransmits = %d, want 1", snd.Stats.FastRetransmits)
	}
	if snd.Stats.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (loss must be repaired by fast retx)", snd.Stats.Timeouts)
	}
	if snd.Stats.Retransmissions != 1 {
		t.Errorf("retransmissions = %d, want 1", snd.Stats.Retransmissions)
	}
}

func TestTailLossNeedsTimeout(t *testing.T) {
	tn := newTestNet()
	snd, rcv := tn.transfer(1, 70000)
	var doneAt sim.Time
	rcv.OnComplete = func() { doneAt = tn.eng.Now() }
	// Drop the first transmission of the last segment: no packets
	// follow it, so no duplicate ACKs are generated and only the RTO
	// can repair it.
	dropped := false
	tn.w.drop = func(p *netem.Packet) bool {
		if p.IsData() && p.Seq == 68600 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd.Start()
	tn.eng.Run()

	if !rcv.Complete() {
		t.Fatal("transfer did not complete")
	}
	if snd.Stats.Timeouts < 1 {
		t.Errorf("timeouts = %d, want >= 1", snd.Stats.Timeouts)
	}
	if snd.Stats.FastRetransmits != 0 {
		t.Errorf("fast retransmits = %d, want 0", snd.Stats.FastRetransmits)
	}
	// The RTO floor dominates the FCT: this is the paper's core
	// mechanism for short-flow tail latency.
	if doneAt < minRTO {
		t.Errorf("FCT = %v, want >= MinRTO %v", doneAt, minRTO)
	}
}

func TestInitialWindowLossUsesInitialRTO(t *testing.T) {
	tn := newTestNet()
	snd, rcv := tn.transfer(1, 70000)
	var doneAt sim.Time
	rcv.OnComplete = func() { doneAt = tn.eng.Now() }
	// Drop the entire initial window (first 2 segments, first try).
	droppedSeqs := map[int64]bool{}
	tn.w.drop = func(p *netem.Packet) bool {
		if p.IsData() && p.Seq < 2800 && !droppedSeqs[p.Seq] {
			droppedSeqs[p.Seq] = true
			return true
		}
		return false
	}
	snd.Start()
	tn.eng.Run()

	if !rcv.Complete() {
		t.Fatal("transfer did not complete")
	}
	// No RTT sample exists before the loss, so the first timeout fires
	// at the initial RTO (1s).
	if doneAt < initialRTO {
		t.Errorf("FCT = %v, want >= initial RTO %v", doneAt, initialRTO)
	}
	if snd.Stats.Timeouts < 1 {
		t.Errorf("timeouts = %d, want >= 1", snd.Stats.Timeouts)
	}
}

func TestRTOExponentialBackoff(t *testing.T) {
	tn := newTestNet()
	snd, _ := tn.transfer(1, 1400)
	tn.w.drop = func(p *netem.Packet) bool { return p.IsData() } // black hole
	snd.Start()
	tn.eng.RunUntil(16 * sim.Second)

	// Timeouts at 1s, 3s, 7s, 15s (doubling from the 1s initial RTO):
	// four timeouts within 16s.
	if snd.Stats.Timeouts != 4 {
		t.Errorf("timeouts = %d, want 4 (exponential backoff)", snd.Stats.Timeouts)
	}
	if snd.rto != 16*sim.Second {
		t.Errorf("RTO after 4 backoffs = %v, want 16s", snd.rto)
	}
}

func TestRTOBackoffCappedAtMaxRTO(t *testing.T) {
	tn := newTestNet()
	snd, _ := tn.transfer(1, 1400)
	tn.w.drop = func(p *netem.Packet) bool { return p.IsData() }
	snd.Start()
	tn.eng.RunUntil(250 * sim.Second)
	// Timeouts at 1, 3, 7, 15, 31 and 63 s, where the doubled 64 s RTO
	// is capped at 60 s, then at 123, 183 and 243 s.
	if snd.rto != maxRTO {
		t.Errorf("RTO = %v, want capped at %v", snd.rto, maxRTO)
	}
	if snd.Stats.Timeouts != 9 {
		t.Errorf("timeouts = %d, want 9 with capped RTO", snd.Stats.Timeouts)
	}
}

func TestHighDupThreshToleratesReordering(t *testing.T) {
	// A jittery path reorders packets aggressively. With the standard
	// threshold of 3 the sender retransmits spuriously; with a raised
	// threshold (MMPTCP's packet-scatter setting) it does not.
	run := func(dupThresh int) *Sender {
		tn := newTestNet()
		rng := sim.NewRNG(42)
		tn.w.delay = func(p *netem.Packet) sim.Time {
			if p.IsData() {
				return sim.Time(rng.Intn(300)) * sim.Microsecond
			}
			return 0
		}
		rcv := NewReceiver(tn.b, 1, 140000)
		snd := NewSender(SenderOptions{
			Host: tn.a, Dst: tn.b.ID(), FlowID: 1,
			SrcPort: 10000, DstPort: 80,
			Source:    &BytesSource{Size: 140000},
			DupThresh: dupThresh,
		})
		snd.Start()
		tn.eng.Run()
		if !rcv.Complete() {
			t.Fatalf("dupThresh=%d: transfer did not complete", dupThresh)
		}
		return snd
	}
	standard := run(0) // default threshold 3
	raised := run(30)
	if standard.Stats.Retransmissions == 0 {
		t.Error("expected spurious retransmissions with threshold 3 under heavy reordering")
	}
	if raised.Stats.Retransmissions != 0 {
		t.Errorf("raised threshold still retransmitted %d segments", raised.Stats.Retransmissions)
	}
	if raised.DupThresh() != 30 {
		t.Errorf("DupThresh() = %d, want 30", raised.DupThresh())
	}
}

func TestScatterPortsVaryPerPacket(t *testing.T) {
	tn := newTestNet()
	rng := sim.NewRNG(7)
	seen := map[uint16]bool{}
	var captured []uint16
	// Capture source ports at the wire.
	origOut := tn.w.out[tn.b.ID()]
	tn.w.drop = func(p *netem.Packet) bool {
		if p.IsData() {
			captured = append(captured, p.SrcPort)
		}
		return false
	}
	_ = origOut
	rcv := NewReceiver(tn.b, 1, 70000)
	snd := NewSender(SenderOptions{
		Host: tn.a, Dst: tn.b.ID(), FlowID: 1,
		SrcPort: 10000, DstPort: 80,
		Source:       &BytesSource{Size: 70000},
		ScatterPorts: func() uint16 { return uint16(rng.Intn(1 << 16)) },
	})
	snd.Start()
	tn.eng.Run()
	if !rcv.Complete() {
		t.Fatal("scattered transfer did not complete")
	}
	for _, p := range captured {
		seen[p] = true
	}
	if len(seen) < 40 {
		t.Errorf("scatter used only %d distinct source ports over %d segments", len(seen), len(captured))
	}
	_ = snd
}

func TestSenderCwndEvolution(t *testing.T) {
	tn := newTestNet()
	snd, rcv := tn.transfer(1, 700000)
	snd.Start()
	tn.eng.Run()
	if !rcv.Complete() {
		t.Fatal("transfer did not complete")
	}
	// Lossless slow start: cwnd must have grown well beyond the
	// initial window.
	if snd.Cwnd <= float64(initialWindow*MSS) {
		t.Errorf("cwnd = %v never grew beyond initial %d", snd.Cwnd, initialWindow*MSS)
	}
	if snd.SRTT() <= 0 {
		t.Error("no RTT sample recorded")
	}
	// Self-induced queueing inflates the RTT well beyond the 40us
	// propagation floor once the window is large; it must stay bounded
	// by the transfer duration.
	if snd.SRTT() > 50*sim.Millisecond {
		t.Errorf("SRTT = %v implausibly large", snd.SRTT())
	}
}

func TestFastRecoveryPartialAcks(t *testing.T) {
	// Drop two segments in the same window: NewReno repairs both within
	// one recovery episode via a partial ACK, without timeout.
	tn := newTestNet()
	snd, rcv := tn.transfer(1, 140000)
	droppedSeqs := map[int64]bool{}
	tn.w.drop = func(p *netem.Packet) bool {
		if p.IsData() && (p.Seq == 28000 || p.Seq == 29400) && !droppedSeqs[p.Seq] {
			droppedSeqs[p.Seq] = true
			return true
		}
		return false
	}
	snd.Start()
	tn.eng.Run()
	if !rcv.Complete() {
		t.Fatal("transfer did not complete")
	}
	if snd.Stats.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (NewReno partial ACK should repair)", snd.Stats.Timeouts)
	}
	if snd.Stats.FastRetransmits != 1 {
		t.Errorf("fast retransmit episodes = %d, want 1", snd.Stats.FastRetransmits)
	}
	if snd.Stats.Retransmissions != 2 {
		t.Errorf("retransmissions = %d, want 2", snd.Stats.Retransmissions)
	}
}

func TestSenderCloseUnregisters(t *testing.T) {
	tn := newTestNet()
	snd, _ := tn.transfer(1, 70000)
	snd.Start()
	tn.eng.RunUntil(50 * sim.Microsecond)
	snd.Close()
	before := tn.a.Unclaimed
	tn.eng.Run()
	if tn.a.Unclaimed == before {
		t.Error("expected late ACKs to be unclaimed after Close")
	}
	if !snd.Done() {
		t.Error("Close must mark the sender done")
	}
}

func TestSenderZeroByteFlow(t *testing.T) {
	tn := newTestNet()
	snd, _ := tn.transfer(1, 0)
	completed := false
	snd.OnAllAcked = func() { completed = true }
	snd.Start()
	tn.eng.Run()
	if snd.Stats.SegmentsSent != 0 {
		t.Errorf("segments sent = %d for empty flow", snd.Stats.SegmentsSent)
	}
	if !completed || !snd.Done() {
		t.Error("zero-byte flow must complete immediately")
	}
}

func TestSenderStatsAccounting(t *testing.T) {
	tn := newTestNet()
	snd, rcv := tn.transfer(1, 70000)
	var doneAt sim.Time
	rcv.OnComplete = func() { doneAt = tn.eng.Now() }
	snd.Start()
	tn.eng.Run()
	if !rcv.Complete() {
		t.Fatal("incomplete")
	}
	if snd.Stats.BytesSent != 70000 {
		t.Errorf("bytes sent = %d, want 70000", snd.Stats.BytesSent)
	}
	if snd.Stats.AcksReceived != 50 {
		t.Errorf("acks received = %d, want 50", snd.Stats.AcksReceived)
	}
	if snd.Stats.SegmentsSent != 50 {
		t.Errorf("segments sent = %d, want 50", snd.Stats.SegmentsSent)
	}
	if doneAt <= 0 {
		t.Errorf("completed at %v, want after time zero", doneAt)
	}
}

// TestSenderStatsAddEveryField: Add sums every counter, so a counter
// added to SenderStats later cannot be left out of a connection's total.
func TestSenderStatsAddEveryField(t *testing.T) {
	var sum, o SenderStats
	sv, ov := reflect.ValueOf(&sum).Elem(), reflect.ValueOf(&o).Elem()
	for i := range sv.NumField() {
		sv.Field(i).SetInt(int64(i + 1))
		ov.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum.Add(o)
	for i := range sv.NumField() {
		if got, want := sv.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}

func TestAdaptiveDupThreshLearnsFromSpuriousRetx(t *testing.T) {
	// A jittery path causes spurious fast retransmissions; the receiver
	// signals each duplicate arrival (DSACK-style) and the adaptive
	// sender raises its threshold, so later reordering no longer
	// triggers retransmissions.
	tn := newTestNet()
	rng := sim.NewRNG(42)
	tn.w.delay = func(p *netem.Packet) sim.Time {
		if p.IsData() {
			return sim.Time(rng.Intn(300)) * sim.Microsecond
		}
		return 0
	}
	rcv := NewReceiver(tn.b, 1, 700_000)
	snd := NewSender(SenderOptions{
		Host: tn.a, Dst: tn.b.ID(), FlowID: 1,
		SrcPort: 10000, DstPort: 80,
		Source:            &BytesSource{Size: 700_000},
		AdaptiveDupThresh: true,
	})
	snd.Start()
	tn.eng.Run()
	if !rcv.Complete() {
		t.Fatal("incomplete")
	}
	if snd.DupThresh() <= DupAckThreshold {
		t.Errorf("threshold never adapted: %d", snd.DupThresh())
	}
	if snd.Stats.SpuriousSignals == 0 {
		t.Error("no spurious signals recorded despite heavy reordering")
	}
	// After adaptation the retransmission rate must be far below the
	// non-adaptive baseline on the same path.
	base := func() *Sender {
		tn2 := newTestNet()
		rng2 := sim.NewRNG(42)
		tn2.w.delay = func(p *netem.Packet) sim.Time {
			if p.IsData() {
				return sim.Time(rng2.Intn(300)) * sim.Microsecond
			}
			return 0
		}
		rcv2 := NewReceiver(tn2.b, 1, 700_000)
		s2 := NewSender(SenderOptions{
			Host: tn2.a, Dst: tn2.b.ID(), FlowID: 1,
			SrcPort: 10000, DstPort: 80,
			Source: &BytesSource{Size: 700_000},
		})
		s2.Start()
		tn2.eng.Run()
		if !rcv2.Complete() {
			t.Fatal("baseline incomplete")
		}
		return s2
	}()
	if snd.Stats.Retransmissions*2 >= base.Stats.Retransmissions {
		t.Errorf("adaptive retx %d not clearly below baseline %d",
			snd.Stats.Retransmissions, base.Stats.Retransmissions)
	}
}

func TestAdaptiveDupThreshCapped(t *testing.T) {
	tn := newTestNet()
	snd := NewSender(SenderOptions{
		Host: tn.a, Dst: tn.b.ID(), FlowID: 2,
		SrcPort: 10001, DstPort: 80,
		Source:            &BytesSource{Size: 1},
		AdaptiveDupThresh: true,
	})
	// Feed synthetic spurious signals directly, well past the cap.
	const signals = 2 * maxAdaptiveDupThresh
	for i := 0; i < signals; i++ {
		snd.HandlePacket(&netem.Packet{Flags: netem.FlagAck | netem.FlagEchoDup, FlowID: 2})
	}
	if snd.DupThresh() != 64 {
		t.Errorf("threshold = %d, want capped at 64", snd.DupThresh())
	}
	if snd.Stats.SpuriousSignals != signals {
		t.Errorf("signals = %d, want %d", snd.Stats.SpuriousSignals, signals)
	}
}

func TestReceiverEchoDupSignal(t *testing.T) {
	tn := newTestNet()
	rcv := NewReceiver(tn.b, 1, 70_000)
	_ = rcv
	// Capture ACKs arriving back at host a.
	var acks []*netem.Packet
	tn.a.Register(1, 0, endpointFunc(func(p *netem.Packet) { acks = append(acks, p) }))
	mk := func(seq int64) *netem.Packet {
		return &netem.Packet{
			Src: tn.a.ID(), Dst: tn.b.ID(), SrcPort: 10000, DstPort: 80,
			Size: 1460, FlowID: 1, Flags: netem.FlagData,
			Seq: seq, PayloadLen: 1400, DataSeq: seq, SentTS: 1,
		}
	}
	tn.a.Send(mk(0))
	tn.a.Send(mk(0)) // duplicate
	tn.a.Send(mk(1400))
	tn.eng.Run()
	if len(acks) != 3 {
		t.Fatalf("acks = %d", len(acks))
	}
	if acks[0].Flags&netem.FlagEchoDup != 0 {
		t.Error("first delivery flagged as duplicate")
	}
	if acks[1].Flags&netem.FlagEchoDup == 0 {
		t.Error("duplicate delivery not flagged")
	}
	if acks[2].Flags&netem.FlagEchoDup != 0 {
		t.Error("fresh delivery flagged as duplicate")
	}
}

// endpointFunc adapts a function to netem.Endpoint.
type endpointFunc func(*netem.Packet)

func (f endpointFunc) HandlePacket(p *netem.Packet) { f(p) }

func TestSenderAccessors(t *testing.T) {
	tn := newTestNet()
	snd, rcv := tn.transfer(1, 70000)
	if snd.inRecovery {
		t.Error("fresh sender in recovery")
	}
	snd.Start()
	tn.eng.Run()
	if snd.Granted() != 70000 {
		t.Errorf("Granted = %d", snd.Granted())
	}
	if snd.Acked() != 70000 {
		t.Errorf("Acked = %d", snd.Acked())
	}
	// Receiver Close unregisters.
	rcv.Close()
	tn.b.Receive(&netem.Packet{FlowID: 1, Flags: netem.FlagData, PayloadLen: 1, Size: 61}, nil)
	if tn.b.Unclaimed != 1 {
		t.Error("closed receiver still claims packets")
	}
}

// TestSenderCloseReleasesResources closes a sender mid-recovery — RTO
// timer armed, a dropped segment under repair, segments still in
// flight — and verifies the teardown contract subflow re-dialing relies
// on: the timer is cancelled, retransmission state is released for the
// garbage collector, the sender never transmits again, and every pooled
// packet the flow put on the wire drains back to the free list.
func TestSenderCloseReleasesResources(t *testing.T) {
	tn := newTestNet()
	pool := netem.NewPacketPool()
	tn.a.SetPool(pool)
	tn.b.SetPool(pool)

	const size = 1 << 20
	rcv := NewReceiver(tn.b, 1, size)
	snd := NewSender(SenderOptions{
		Host:    tn.a,
		Dst:     tn.b.ID(),
		FlowID:  1,
		SrcPort: 10000,
		DstPort: 80,
		Source:  &BytesSource{Size: size},
	})
	snd.OnAllAcked = func() {}
	snd.OnCongestionEvent = func() {}
	snd.OnPersistentRTO = func() {}

	// Drop one mid-window data segment so the sender is in recovery,
	// holding mappings for a hole, when it is torn down.
	dropped := false
	tn.w.drop = func(p *netem.Packet) bool {
		if p.IsData() && !dropped && p.Seq > 20000 {
			dropped = true
			pool.Put(p) // the drop makes the wire the packet's terminal owner
			return true
		}
		return false
	}
	snd.Start()
	tn.eng.RunUntil(2 * sim.Millisecond)

	if !snd.timer.Active() {
		t.Fatal("precondition: RTO timer should be armed mid-flow")
	}
	sent := snd.Stats.SegmentsSent
	snd.Close()

	if snd.timer.Active() {
		t.Error("Close must cancel the RTO timer")
	}
	if !snd.Done() {
		t.Error("Close must mark the sender done")
	}
	if snd.maps != nil {
		t.Error("Close must release the sequence mappings")
	}
	if snd.OnAllAcked != nil || snd.OnCongestionEvent != nil || snd.OnPersistentRTO != nil {
		t.Error("Close must drop callbacks (they pin the owning connection)")
	}

	// Drain the in-flight packets: data still on the wire is delivered
	// and recycled by host b, and the resulting ACKs come back to host a
	// unclaimed, where the host recycles them. Nothing is transmitted
	// and no timer fires after Close.
	tn.eng.Run()
	if snd.Stats.SegmentsSent != sent {
		t.Errorf("sender transmitted after Close: %d -> %d segments", sent, snd.Stats.SegmentsSent)
	}
	if tn.a.Unclaimed == 0 {
		t.Error("expected late ACKs to arrive unclaimed after Close")
	}
	rcv.Close()
	if pool.Gets != pool.Recycled {
		t.Errorf("packet leak: %d allocated from the pool, %d recycled", pool.Gets, pool.Recycled)
	}
}

// sourceFunc adapts a function to DataSource.
type sourceFunc func(maxBytes int) (int64, int, bool)

func (f sourceFunc) Next(maxBytes int) (int64, int, bool) { return f(maxBytes) }

// TestSenderMappingsStayInPlace: the sequence mappings of a long transfer
// live in one array sized by the window. Pruning by re-slicing used to
// give away the array's front, so the append in trySend moved the live
// mappings to a new array every window or so for the life of the flow. A
// periodic loss keeps the window a small fraction of the transfer. The
// source skips every other chunk, as an MPTCP connection does to one of
// its subflows, so no grant extends a run and every one is a mapping.
func TestSenderMappingsStayInPlace(t *testing.T) {
	tn := newTestNet()
	const segments = 20000
	size := int64(segments * MSS)
	var next int64
	rcv := NewReceiver(tn.b, 1, size)
	snd := NewSender(SenderOptions{
		Host: tn.a, Dst: tn.b.ID(), FlowID: 1, SrcPort: 10000, DstPort: 80,
		Source: sourceFunc(func(maxBytes int) (int64, int, bool) {
			seq := next
			next += 2 * int64(maxBytes)
			return seq, maxBytes, next >= 2*size
		}),
	})
	var (
		maxLive, maxCap, arrays int
		base                    *mapping
	)
	tn.w.drop = func(p *netem.Packet) bool {
		if n := len(snd.maps) - snd.mapHead; n > maxLive {
			maxLive = n
		}
		if c := cap(snd.maps); c > 0 {
			if c > maxCap {
				maxCap = c
			}
			if b := &snd.maps[:1][0]; b != base {
				base = b
				arrays++
			}
		}
		return p.IsData() && p.Flags&netem.FlagRetx == 0 && p.Seq%int64(400*MSS) == int64(200*MSS)
	}
	snd.Start()
	tn.eng.Run()

	if !rcv.Complete() {
		t.Fatal("transfer did not complete")
	}
	if maxLive == 0 || maxLive*10 > segments {
		t.Fatalf("window peaked at %d of %d segments; the scenario no longer separates window from flow length", maxLive, segments)
	}
	if maxCap > 4*maxLive+8 {
		t.Errorf("cap(maps) reached %d with at most %d live mappings", maxCap, maxLive)
	}
	// Doubling up to the peak window, never again after it.
	if arrays > 12 {
		t.Errorf("maps moved to a new array %d times over %d segments (window peak %d)", arrays, segments, maxLive)
	}
}

// TestIdentityTransferHoldsOneRun: an identity source grants contiguous
// data, so the whole window of a 20,000-segment transfer — losses,
// fast retransmits and all — is one live run.
func TestIdentityTransferHoldsOneRun(t *testing.T) {
	tn := newTestNet()
	const segments = 20000
	snd, rcv := tn.transfer(1, int64(segments*MSS))
	maxLive := 0
	tn.w.drop = func(p *netem.Packet) bool {
		maxLive = max(maxLive, len(snd.maps)-snd.mapHead)
		return p.IsData() && p.Flags&netem.FlagRetx == 0 && p.Seq%int64(400*MSS) == int64(200*MSS)
	}
	snd.Start()
	tn.eng.Run()

	if !rcv.Complete() {
		t.Fatal("transfer did not complete")
	}
	if maxLive != 1 {
		t.Errorf("identity transfer held up to %d live runs, want 1", maxLive)
	}
	if snd.Stats.FastRetransmits == 0 {
		t.Error("no loss recovery: the scenario no longer exercises retransmission")
	}
}

// TestDefaultPacketFitsSizeField: netem.Packet carries Size and
// PayloadLen as uint16, so the largest packet a default sender builds —
// one MSS plus headers — must fit, or a later default change would wrap
// sizes silently instead of failing here.
func TestDefaultPacketFitsSizeField(t *testing.T) {
	if n := MSS + headerBytes; n > math.MaxUint16 {
		t.Fatalf("MSS %d + HeaderBytes %d = %d does not fit Packet.Size (uint16)", MSS, headerBytes, n)
	}
}

// ecnSpy is RenoCC that counts the ECN echoes the sender hands it.
type ecnSpy struct {
	RenoCC
	calls, marked int
}

func (c *ecnSpy) OnECNEcho(_ *Sender, _ int, marked bool) {
	c.calls++
	if marked {
		c.marked++
	}
}

// TestFlagBitsRoundTrip: the packed flag bits go where the packet's
// booleans used to. A queue's CE mark at enqueue comes back as
// FlagEchoCE on the ACK for that segment and reaches OnECNEcho on every
// ACK that advances snd.una; FlagRetx is set on exactly the segments
// sent before; FlagEchoDup on exactly the ACKs for all-duplicate
// segments. A held-back segment (a spurious fast retransmit, then a
// duplicate) and a dropped one (a real retransmit) exercise both.
func TestFlagBitsRoundTrip(t *testing.T) {
	tn := newTestNet()
	tn.a.Uplinks()[0].ECNThreshold = 2
	mss := int64(MSS)
	spy := &ecnSpy{}
	rcv := NewReceiver(tn.b, 1, 140_000)
	snd := NewSender(SenderOptions{
		Host: tn.a, Dst: tn.b.ID(), FlowID: 1, SrcPort: 10000, DstPort: 80,
		Source: &BytesSource{Size: 140_000}, CC: spy,
	})

	// At the wire: data segments in send order, ACKs in arrival order.
	sent := map[int64]bool{}
	var retxFlags int
	var acks []uint8 // FlagEchoCE|FlagEchoDup bits of each ACK
	var advancing, advancingCE int
	var maxAck int64
	tn.w.drop = func(p *netem.Packet) bool {
		if p.IsData() {
			if retx := p.Flags&netem.FlagRetx != 0; retx != sent[p.Seq] {
				t.Errorf("seq %d: FlagRetx %v, sent before %v", p.Seq, retx, sent[p.Seq])
			} else if retx {
				retxFlags++
			}
			first := !sent[p.Seq]
			sent[p.Seq] = true
			return first && p.Seq == 40*mss // a real loss
		}
		acks = append(acks, p.Flags&(netem.FlagEchoCE|netem.FlagEchoDup))
		if p.AckSeq > maxAck {
			maxAck = p.AckSeq
			advancing++
			if p.Flags&netem.FlagEchoCE != 0 {
				advancingCE++
			}
		}
		return false
	}
	held := false
	tn.w.delay = func(p *netem.Packet) sim.Time {
		if p.IsData() && p.Seq == 10*mss && !held {
			held = true
			return 2 * sim.Millisecond // overtaken: fast retransmit, then a duplicate
		}
		return 0
	}

	// At host b, ahead of the receiver: what each segment's ACK must echo.
	got := map[int64]bool{}
	var want []uint8
	var marks, dups int
	tn.b.Register(1, 0, endpointFunc(func(p *netem.Packet) {
		var echo uint8
		if p.Flags&netem.FlagCE != 0 {
			echo |= netem.FlagEchoCE
			marks++
		}
		if got[p.Seq] {
			echo |= netem.FlagEchoDup
			dups++
		}
		got[p.Seq] = true
		want = append(want, echo)
		rcv.HandlePacket(p)
	}))

	snd.Start()
	tn.eng.Run()
	if !rcv.Complete() {
		t.Fatal("transfer incomplete")
	}
	retx := int(snd.Stats.Retransmissions)
	if marks == 0 || advancingCE == 0 || dups == 0 || retx < 2 {
		t.Fatalf("scenario too mild: %d CE marks (%d on advancing ACKs), %d duplicates, %d retransmissions",
			marks, advancingCE, dups, retx)
	}
	if retxFlags != retx {
		t.Errorf("%d segments carried FlagRetx, sender retransmitted %d", retxFlags, retx)
	}
	if len(acks) != len(want) {
		t.Fatalf("%d ACKs reached the wire for %d segments", len(acks), len(want))
	}
	for i := range acks {
		if acks[i] != want[i] {
			t.Errorf("ACK %d echoes flags %#x, its segment wants %#x", i, acks[i], want[i])
		}
	}
	if spy.calls != advancing || spy.marked != advancingCE {
		t.Errorf("OnECNEcho saw %d ACKs (%d marked), want %d (%d marked)", spy.calls, spy.marked, advancing, advancingCE)
	}
}
