package tcp

import (
	"slices"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// segment is one grant as the sender's source handed it out: the
// subflow-sequence bytes [subSeq, subSeq+n) carry data bytes
// [dataSeq, dataSeq+n).
type segment struct{ subSeq, dataSeq, n int64 }

// recordingSource wraps a DataSource and records every grant as the
// segment it becomes. A sender lays grants back to back in subflow
// sequence space, so each grant starts where the previous one ended.
type recordingSource struct {
	DataSource
	segs  []segment
	bySeq map[int64]segment
	limit int64
}

func (r *recordingSource) Next(maxBytes int) (int64, int, bool) {
	seq, n, exhausted := r.DataSource.Next(maxBytes)
	if n > 0 {
		sg := segment{r.limit, seq, int64(n)}
		r.segs = append(r.segs, sg)
		r.bySeq[sg.subSeq] = sg
		r.limit += int64(n)
	}
	return seq, n, exhausted
}

// interleavedSource grants data the way an MPTCP connection does to one
// of its subflows: between grants it skips ranges other subflows took,
// and now and then a grant falls short of maxBytes mid-stream.
type interleavedSource struct {
	rng       *sim.RNG
	next, end int64
}

func (s *interleavedSource) Next(maxBytes int) (int64, int, bool) {
	if s.rng.Intn(3) == 0 {
		s.next += int64(1 + s.rng.Intn(3*maxBytes))
	}
	if s.next >= s.end {
		return s.next, 0, true
	}
	n := int64(maxBytes)
	if s.rng.Intn(8) == 0 {
		n = int64(1 + s.rng.Intn(maxBytes))
	}
	n = min(n, s.end-s.next)
	seq := s.next
	s.next += n
	return seq, int(n), s.next >= s.end
}

// FuzzSenderSegments checks the sender's sequence mappings against a
// per-segment model of what its source granted, under random loss of
// data alone or of data and ACKs (fast retransmits, partial ACKs, RTO
// go-back-N): every data packet on the wire is the model segment
// starting at its Seq, byte for byte; UnackedData, cut back into MSS
// pieces, is the model's unacknowledged segments in order; an identity
// source never holds more than one live run; and the transfer delivers
// every granted byte.
//
// source picks the data source: identity over 200 segments; interleaved
// (skipped data ranges and short grants, as an MPTCP subflow sees); or
// identity capped at the paper's 100,000-byte SwitchBytes, which ends on
// a partial segment (71·1400 + 600). loss%21 is the drop percentage,
// applied to data packets only when dataOnly is set.
func FuzzSenderSegments(f *testing.F) {
	for _, source := range []uint8{0, 1, 2} {
		for _, loss := range []uint8{0, 3, 20} {
			f.Add(uint64(source)+1, source, loss, false)
			f.Add(uint64(source)+1, source, loss, true)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, source, loss uint8, dataOnly bool) {
		rng := sim.NewRNG(seed)
		mss := int64(MSS)
		rec := &recordingSource{bySeq: map[int64]segment{}}
		switch source % 3 {
		case 0:
			rec.DataSource = &BytesSource{Size: 200 * mss}
		case 1:
			rec.DataSource = &interleavedSource{rng: rng, end: 300 * mss}
		case 2:
			rec.DataSource = &BytesSource{Size: 100_000}
		}
		identity := source%3 != 1

		tn := newTestNet()
		rcv := NewReceiver(tn.b, 1, -1)
		snd := NewSender(SenderOptions{
			Host: tn.a, Dst: tn.b.ID(), FlowID: 1, SrcPort: 10000, DstPort: 80,
			Source: rec,
		})

		checkUnacked := func() {
			var got, want []segment
			for _, iv := range snd.UnackedData() {
				for off := int64(0); off < iv[1]; off += mss {
					got = append(got, segment{dataSeq: iv[0] + off, n: min(mss, iv[1]-off)})
				}
			}
			for _, sg := range rec.segs {
				if sg.subSeq+sg.n > snd.Acked() {
					want = append(want, segment{dataSeq: sg.dataSeq, n: sg.n})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("at snd.una %d UnackedData cuts into %v, model has %v", snd.Acked(), got, want)
			}
		}
		dropPct := int(loss % 21)
		tn.w.drop = func(p *netem.Packet) bool {
			if p.IsData() {
				sg, ok := rec.bySeq[p.Seq]
				if !ok || int64(p.PayloadLen) != sg.n || p.DataSeq != sg.dataSeq {
					t.Fatalf("wire carries seq %d len %d data %d; the model segment there is %+v (granted: %v)",
						p.Seq, p.PayloadLen, p.DataSeq, sg, ok)
				}
			}
			if identity && len(snd.maps)-snd.mapHead > 1 {
				t.Fatalf("identity source holds %d live runs", len(snd.maps)-snd.mapHead)
			}
			if rng.Intn(8) == 0 {
				checkUnacked()
			}
			return (p.IsData() || !dataOnly) && rng.Intn(100) < dropPct
		}
		snd.Start()
		tn.eng.RunUntil(3600 * sim.Second)

		if !snd.Done() {
			t.Fatalf("transfer stalled: acked %d of %d granted bytes", snd.Acked(), rec.limit)
		}
		if rcv.Delivered() != rec.limit {
			t.Errorf("receiver holds %d data bytes, the source granted %d", rcv.Delivered(), rec.limit)
		}
		checkUnacked()
	})
}
