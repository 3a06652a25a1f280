package tcp

import (
	"testing"
	"testing/quick"

	"repro/internal/netem"
	"repro/internal/sim"
)

// sackTransfer runs one flow over the programmable wire with SACK on or
// off and a drop predicate, returning the sender.
func sackTransfer(t *testing.T, enableSACK bool, size int64, drop func(p *netem.Packet) bool) (*Sender, sim.Time) {
	t.Helper()
	tn := newTestNet()
	// A real WAN-ish RTT (~2 ms) so that per-RTT recovery rounds are
	// visible in the completion time.
	tn.w.delay = func(p *netem.Packet) sim.Time { return sim.Millisecond }
	cfg := DefaultConfig()
	rcv := NewReceiver(cfg, tn.b, 1, size)
	var doneAt sim.Time
	rcv.OnComplete = func() { doneAt = tn.eng.Now() }
	snd := NewSender(cfg, SenderOptions{
		Host: tn.a, Dst: tn.b.ID(), FlowID: 1,
		SrcPort: 10000, DstPort: 80,
		Source:     &BytesSource{Size: size},
		EnableSACK: enableSACK,
	})
	tn.w.drop = drop
	snd.Start()
	tn.eng.Run()
	if !rcv.Complete() {
		t.Fatalf("transfer incomplete (sack=%v)", enableSACK)
	}
	return snd, doneAt
}

// dropBurst drops the first transmission of nLosses consecutive
// segments starting at startSeq.
func dropBurst(startSeq int64, nLosses int) func(p *netem.Packet) bool {
	dropped := map[int64]bool{}
	return func(p *netem.Packet) bool {
		if !p.IsData() {
			return false
		}
		idx := (p.Seq - startSeq) / 1400
		if p.Seq >= startSeq && idx < int64(nLosses) && !dropped[p.Seq] {
			dropped[p.Seq] = true
			return true
		}
		return false
	}
}

func TestSACKRepairsMultiLossInOneEpisode(t *testing.T) {
	// Five losses in one window. NewReno needs one RTT per hole (five
	// partial-ACK rounds); SACK repairs them all within the episode,
	// ack-clocked, with no timeout either way.
	const size = 280_000
	newReno, renoDone := sackTransfer(t, false, size, dropBurst(42_000, 5))
	sack, sackDone := sackTransfer(t, true, size, dropBurst(42_000, 5))

	if newReno.Stats.Timeouts != 0 || sack.Stats.Timeouts != 0 {
		t.Fatalf("timeouts: reno=%d sack=%d, want 0",
			newReno.Stats.Timeouts, sack.Stats.Timeouts)
	}
	if sack.Stats.Retransmissions != 5 {
		t.Errorf("SACK retransmissions = %d, want exactly the 5 lost segments",
			sack.Stats.Retransmissions)
	}
	if sackDone >= renoDone {
		t.Errorf("SACK FCT %v not faster than NewReno %v for multi-loss window",
			sackDone, renoDone)
	}
	if sack.Stats.FastRetransmits != 1 {
		t.Errorf("SACK recovery episodes = %d, want 1", sack.Stats.FastRetransmits)
	}
}

func TestSACKSingleLossMatchesNewReno(t *testing.T) {
	// With one loss the two recovery styles behave identically.
	reno, _ := sackTransfer(t, false, 140_000, dropBurst(14_000, 1))
	sack, _ := sackTransfer(t, true, 140_000, dropBurst(14_000, 1))
	if reno.Stats.Retransmissions != 1 || sack.Stats.Retransmissions != 1 {
		t.Errorf("retransmissions: reno=%d sack=%d, want 1 each",
			reno.Stats.Retransmissions, sack.Stats.Retransmissions)
	}
}

func TestSACKDoesNotReRetransmitSameHole(t *testing.T) {
	// Many dup ACKs arrive per loss; each hole must be retransmitted at
	// most once per episode even though every dup ACK offers a chance.
	sack, _ := sackTransfer(t, true, 280_000, dropBurst(28_000, 3))
	if sack.Stats.Retransmissions != 3 {
		t.Errorf("retransmissions = %d, want 3 (one per hole)", sack.Stats.Retransmissions)
	}
}

func TestSACKBlocksAdvertised(t *testing.T) {
	// Verify the receiver attaches correct blocks when a hole exists.
	tn := newTestNet()
	cfg := DefaultConfig()
	NewReceiver(cfg, tn.b, 1, 70_000)
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
	tn.a.Send(mk(2800)) // hole at 1400
	tn.a.Send(mk(5600))
	tn.eng.Run()
	if len(acks) != 3 {
		t.Fatalf("acks = %d", len(acks))
	}
	if acks[0].SackN != 0 {
		t.Error("in-order ACK carries SACK blocks")
	}
	if acks[1].SackN != 1 || acks[1].Sack[0] != [2]int64{2800, 4200} {
		t.Errorf("ack 1 blocks = %v (n=%d), want [[2800 4200]]", acks[1].Sack, acks[1].SackN)
	}
	// Two holes after the third segment: [1400,2800) and [4200,5600).
	if acks[2].SackN != 2 ||
		acks[2].Sack[0] != [2]int64{2800, 4200} ||
		acks[2].Sack[1] != [2]int64{5600, 7000} {
		t.Errorf("ack 2 blocks = %v (n=%d)", acks[2].Sack, acks[2].SackN)
	}
}

func TestSeqSetBlocks(t *testing.T) {
	var s SeqSet
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(40, 50)
	s.Add(60, 70)
	blocks := s.Blocks(10, 3)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want 3 (capped)", len(blocks))
	}
	if blocks[0] != [2]int64{20, 30} || blocks[2] != [2]int64{60, 70} {
		t.Errorf("blocks = %v", blocks)
	}
	// A block straddling `after` is clipped.
	if b := s.Blocks(5, 4); b[0] != [2]int64{5, 10} {
		t.Errorf("clipped block = %v", b[0])
	}
	if b := s.Blocks(100, 3); len(b) != 0 {
		t.Errorf("blocks above coverage = %v", b)
	}
}

// Property: Blocks never returns anything below `after`, never overlaps,
// is sorted, and every returned byte is actually covered by the set.
func TestSeqSetBlocksProperty(t *testing.T) {
	f := func(adds []uint8, afterRaw uint8) bool {
		var s SeqSet
		for i := 0; i+1 < len(adds); i += 2 {
			start := int64(adds[i])
			s.Add(start, start+int64(adds[i+1]%32))
		}
		after := int64(afterRaw)
		blocks := s.Blocks(after, 3)
		if len(blocks) > 3 {
			return false
		}
		prevEnd := int64(-1)
		for _, b := range blocks {
			if b[0] < after || b[0] >= b[1] {
				return false
			}
			if b[0] <= prevEnd {
				return false // unsorted or overlapping
			}
			prevEnd = b[1]
			if !s.Contains(b[0], b[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSeqSetMaxEnd(t *testing.T) {
	var s SeqSet
	if s.MaxEnd() != 0 {
		t.Error("MaxEnd on empty set")
	}
	s.Add(10, 20)
	s.Add(50, 60)
	if s.MaxEnd() != 60 {
		t.Errorf("MaxEnd = %d", s.MaxEnd())
	}
}
