package core

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// openUntil is a ConvergenceObserver whose convergence window stays open
// until a fixed virtual time. It remembers when a phase switch first
// found the window open: the start of the deferral MaxDefer bounds.
type openUntil struct {
	eng       *sim.Engine
	until     sim.Time
	firstOpen sim.Time // -1 until the window is first reported open
}

func (o *openUntil) ConvergenceOpen() bool {
	open := o.eng.Now() < o.until
	if open && o.firstOpen < 0 {
		o.firstOpen = o.eng.Now()
	}
	return open
}

// endpointFunc adapts a function to netem.Endpoint.
type endpointFunc func(*netem.Packet)

func (f endpointFunc) HandlePacket(p *netem.Packet) { f(p) }

// psRecovery models the packet-scatter sender's fast-retransmit rule per
// ACK: an ACK at snd.una with data in flight is a duplicate; the
// threshold-th consecutive duplicate outside recovery fast-retransmits;
// an ACK that advances snd.una or a timeout restarts the count; recovery
// lasts until snd.una reaches what was sent when it began, or a timeout.
// The threshold is the mode's: max(3, PathCount) for topology, 3 for
// standard, and 3 plus one per DSACK-style echo (capped at 64) for
// adaptive.
type psRecovery struct {
	threshold  int
	adaptive   bool
	dups       int
	inRecovery bool
	recover    int64
	timeouts   int64
}

// FuzzPhases runs one MMPTCP connection across a K=4 FatTree (1, 2 or 4
// equal-cost paths, by destination) and checks both phases against a
// per-packet spec, under data loss, optional ACK loss on the scatter
// flow, and per-packet extra delay before the receiver (reordering):
//
//   - the application reads every byte exactly once and in order: a hash
//     of the stream reassembled from the data packets the receiver got
//     equals a hash of the stream sent, and a retransmission of a
//     subflow sequence number carries the data it carried the first time;
//   - scatter carries exactly the data-level bytes [0, handover), the
//     MPTCP subflows exactly [handover, size), and after the switch the
//     scatter sender only retransmits; with the data-volume strategy the
//     handover is min(size, SwitchBytes) and the switch happens exactly
//     when the flow is larger than that;
//   - the scatter sender fast-retransmits exactly when its mode's
//     duplicate-ACK count is reached outside recovery (psRecovery), never
//     earlier, and the fast retransmit puts a segment on the wire; every
//     segment a sender counts leaves the source host;
//   - a deferred switch waits while convergence is open and fires by
//     core.MaxDefer after the first postponement.
//
// shape%3 is the threshold mode; shape&4 selects the congestion-event
// strategy; shape&8 drops scatter ACKs too. dst%3 picks a destination in
// the same edge, the same pod or another pod. loss%21 is the drop
// percentage, delayUs the largest extra delay in µs, and deferMs, when
// non-zero, holds convergence open for that many ms with the switch
// deferral armed.
func FuzzPhases(f *testing.F) {
	add := func(seed uint64, size, switchBytes uint32, shape, dst, loss, delayUs, deferMs uint8) {
		f.Add(seed, size, switchBytes, shape, dst, loss, delayUs, deferMs)
	}
	// The paper's setting: a 70 KB flow stays in scatter, a flow of
	// exactly SwitchBytes does not switch, a 300 KB flow switches at
	// 100 KB.
	add(42, 70_000, 100_000, 0, 2, 0, 0, 0)
	add(3, 100_000, 100_000, 0, 2, 0, 0, 0)
	add(7, 300_000, 100_000, 0, 2, 0, 0, 0)
	// Loss and reordering in each threshold mode, on 4, 2 and 1 paths.
	for mode := uint8(0); mode < 3; mode++ {
		add(11+uint64(mode), 300_000, 100_000, mode, 2, 5, 0, 0)
		add(21+uint64(mode), 150_000, 60_000, mode|8, 1, 8, 200, 0)
		add(31+uint64(mode), 200_000, 250_000, mode, 0, 3, 50, 0)
	}
	// The congestion-event strategy, with and without loss.
	add(41, 300_000, 100_000, 4, 2, 0, 0, 0)
	add(42, 300_000, 100_000, 4, 2, 4, 100, 0)
	add(43, 250_000, 100_000, 4|1|8, 1, 10, 0, 0)
	// Deferred switches: convergence closes before and after MaxDefer.
	add(51, 300_000, 100_000, 0, 2, 0, 0, 20)
	add(52, 300_000, 100_000, 0, 2, 3, 30, 200)
	add(53, 300_000, 100_000, 4, 2, 6, 0, 255)

	f.Fuzz(func(t *testing.T, seed uint64, sizeIn, switchIn uint32, shape, dstIn, lossIn, delayUs, deferMs uint8) {
		size := max(1, int64(sizeIn%400_001))
		cfg := Config{
			MPTCP:       mptcp.Config{Subflows: 8},
			Strategy:    SwitchDataVolume,
			SwitchBytes: max(1, int64(switchIn%400_001)),
			Threshold:   ThresholdMode(shape % 3),
		}
		if shape&4 != 0 {
			cfg.Strategy = SwitchCongestionEvent
		}
		ackLoss := shape&8 != 0
		lossPct := int(lossIn % 21)

		eng := sim.NewEngine()
		ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig(), Seed: seed})
		src, dst := ft.Hosts[0], ft.Hosts[[]int{1, 2, 15}[dstIn%3]]
		paths := ft.PathCount(src.ID(), dst.ID())
		const flow = 1
		opt := Options{
			SrcHost: src, DstHost: dst, FlowID: flow, Size: size,
			PathCount: paths, RNG: sim.NewRNG(seed),
		}
		var observer *openUntil
		if deferMs > 0 {
			cfg.DeferPhaseSwitch = true
			observer = &openUntil{eng: eng, until: sim.Time(deferMs) * sim.Millisecond, firstOpen: -1}
			opt.Observer = observer
		}
		conn := Dial(cfg, opt)
		ps, rcv := conn.PacketScatter(), conn.Receiver()
		rng := sim.NewRNGStream(seed, 1)

		// The switch: the data-level bytes scatter had been handed, and
		// its counters once the event that switched is over (the grant
		// that exhausted scatter's budget is still being sent then).
		var handover int64 = -1
		var atSwitch tcp.SenderStats
		conn.OnSwitch = func() {
			handover = conn.psSrc.allocated
			eng.Schedule(0, func() { atSwitch = ps.Stats })
		}
		allAcked := false
		conn.OnAllAcked = func() { allAcked = true }

		// Scatter ACKs pass psRecovery's model on their way in.
		model := psRecovery{threshold: max(3, paths)}
		switch cfg.Threshold {
		case ThresholdAdaptive:
			model.threshold, model.adaptive = tcp.DupAckThreshold, true
		case ThresholdStandard:
			model.threshold = tcp.DupAckThreshold
		}
		src.Unregister(flow, 0)
		src.Register(flow, 0, endpointFunc(func(p *netem.Packet) {
			if ackLoss && rng.Intn(100) < lossPct {
				return
			}
			if ps.Done() || !p.IsAck() {
				ps.HandlePacket(p)
				return
			}
			if ps.Stats.Timeouts != model.timeouts {
				model.timeouts, model.dups, model.inRecovery = ps.Stats.Timeouts, 0, false
			}
			if model.adaptive && p.Flags&netem.FlagEchoDup != 0 {
				model.threshold = min(model.threshold+1, 64)
			}
			una, flight := ps.Acked(), ps.Flight()
			wantFR := false
			switch {
			case p.AckSeq > una:
				model.dups = 0
				if model.inRecovery && p.AckSeq >= model.recover {
					model.inRecovery = false
				}
			case p.AckSeq == una && flight > 0:
				model.dups++
				if !model.inRecovery && model.dups == model.threshold {
					wantFR = true
					model.inRecovery, model.recover = true, una+flight
				}
			}
			before := ps.Stats
			ps.HandlePacket(p)
			if fr := ps.Stats.FastRetransmits - before.FastRetransmits; fr != 0 != wantFR || fr > 1 {
				t.Fatalf("at %v: %d fast retransmits on duplicate ACK %d of threshold %d (in recovery: %v)",
					eng.Now(), fr, model.dups, model.threshold, model.inRecovery && !wantFR)
			}
			if wantFR && ps.Stats.Retransmissions == before.Retransmissions {
				t.Fatalf("at %v: fast retransmit sent no segment", eng.Now())
			}
		}))

		// Data reaches the receiver through loss and extra delay, and is
		// reassembled into what the application reads.
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(rng.Uint32())
		}
		appNext, read := int64(0), sha256.New()
		var arrived, scatter, subflows tcp.SeqSet
		var scatterBytes, subflowBytes int64 // distinct data bytes each phase delivered
		stamps := map[[2]int64]int64{}
		deliver := func(p *netem.Packet) {
			lo, hi := p.DataSeq, p.DataSeq+int64(p.PayloadLen)
			if lo < 0 || hi > size {
				t.Fatalf("subflow %d carries data [%d, %d) of a %d-byte flow", p.Subflow, lo, hi, size)
			}
			key := [2]int64{int64(p.Subflow), p.Seq}
			if first, ok := stamps[key]; ok && first != lo {
				t.Fatalf("subflow %d seq %d carries data %d, first sent with data %d", p.Subflow, p.Seq, lo, first)
			}
			stamps[key] = lo
			if p.Subflow == 0 {
				scatterBytes += scatter.Add(lo, hi)
			} else {
				subflowBytes += subflows.Add(lo, hi)
			}
			arrived.Add(lo, hi)
			if end := arrived.ContiguousFrom(0); end > appNext {
				read.Write(payload[appNext:end])
				appNext = end
			}
			rcv.HandlePacket(p)
		}
		dst.Unregister(flow, -1)
		dst.Register(flow, -1, endpointFunc(func(p *netem.Packet) {
			if !p.IsData() {
				return
			}
			if rng.Intn(100) < lossPct {
				return
			}
			if delayUs > 0 {
				if d := sim.Time(rng.Intn(int(delayUs)+1)) * sim.Microsecond; d > 0 {
					cp := *p // the host recycles p once this returns
					eng.Schedule(d, func() { deliver(&cp) })
					return
				}
			}
			deliver(p)
		}))

		conn.Start()
		eng.RunUntil(3600 * sim.Second)

		// Every byte, once, in order.
		if !rcv.Complete() || rcv.Delivered() != size || !allAcked {
			t.Fatalf("transfer incomplete: receiver holds %d of %d bytes (complete %v, all acked %v)",
				rcv.Delivered(), size, rcv.Complete(), allAcked)
		}
		want := sha256.Sum256(payload)
		if appNext != size || !bytes.Equal(read.Sum(nil), want[:]) {
			t.Fatalf("the application read %d of %d bytes, and they hash differently from what was sent", appNext, size)
		}

		// What each phase carried.
		switched := conn.Switched()
		if switched != (handover >= 0) || switched != (conn.MPTCP() != nil) || switched != (conn.SwitchedAt() > 0) {
			t.Fatalf("Switched() = %v, but OnSwitch fired: %v, MPTCP phase: %v, switch time %v",
				switched, handover >= 0, conn.MPTCP() != nil, conn.SwitchedAt())
		}
		if !switched {
			handover = size
		}
		if cfg.Strategy == SwitchDataVolume {
			if wantSwitch := size > cfg.SwitchBytes; switched != wantSwitch {
				t.Fatalf("%d-byte flow with SwitchBytes %d: switched %v, want %v", size, cfg.SwitchBytes, switched, wantSwitch)
			}
			if want := min(size, cfg.SwitchBytes); handover != want {
				t.Fatalf("scatter was handed %d bytes before the switch, want %d", handover, want)
			}
		} else if switched && atSwitch.FastRetransmits+atSwitch.Timeouts == 0 {
			t.Fatal("congestion-event strategy switched without a congestion event")
		}
		if got := ps.Granted(); got != handover {
			t.Fatalf("scatter was granted %d bytes, %d of them after the switch at %d", got, got-handover, handover)
		}
		if switched {
			if newSegs := (ps.Stats.SegmentsSent - atSwitch.SegmentsSent) - (ps.Stats.Retransmissions - atSwitch.Retransmissions); newSegs != 0 {
				t.Fatalf("scatter sent %d new segments after the switch", newSegs)
			}
		}
		if scatterBytes != handover || scatter.ContiguousFrom(0) != handover {
			t.Fatalf("scatter delivered %d data bytes, contiguous to %d; want exactly [0, %d)",
				scatterBytes, scatter.ContiguousFrom(0), handover)
		}
		if subflowBytes != size-handover || subflows.ContiguousFrom(handover) != size {
			t.Fatalf("the MPTCP subflows delivered %d data bytes, contiguous from %d to %d; want exactly [%d, %d)",
				subflowBytes, handover, subflows.ContiguousFrom(handover), handover, size)
		}

		// Threshold and wire.
		if !model.adaptive && ps.DupThresh() != model.threshold {
			t.Fatalf("scatter threshold %d, want %d", ps.DupThresh(), model.threshold)
		}
		if sent := conn.Stats().SegmentsSent; src.TxPackets != sent {
			t.Fatalf("the source sent %d packets; its senders count %d segments", src.TxPackets, sent)
		}

		// The deferral bound.
		if observer != nil && observer.firstOpen >= 0 && switched {
			at, bound := conn.SwitchedAt(), observer.firstOpen+MaxDefer
			if at > bound || at < min(observer.until, bound) {
				t.Fatalf("deferred switch at %v: convergence open until %v, first deferral at %v, bound %v",
					at, observer.until, observer.firstOpen, bound)
			}
		}
	})
}
