package mptcp

import "repro/internal/tcp"

// liaCC implements the Linked Increases Algorithm (RFC 6356): in
// congestion avoidance, for each ACK of acked bytes on subflow r,
//
//	cwnd_r += min( alpha * MSS * acked / cwnd_total , MSS * acked / cwnd_r )
//
// where
//
//	alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / ( sum_i cwnd_i / rtt_i )^2
//
// This caps the multipath connection's aggressiveness at that of a
// single-path TCP on the best path, while shifting traffic away from
// congested paths. Slow start below ssthresh is standard. Window
// decreases are per-subflow halving, implemented by the tcp.Sender.
type liaCC struct {
	conn *Connection
}

// OnAck implements tcp.CongestionControl.
func (l *liaCC) OnAck(s *tcp.Sender, ackedBytes int) {
	mss := float64(tcp.MSS)
	if s.Cwnd < s.Ssthresh {
		inc := float64(ackedBytes)
		if inc > mss {
			inc = mss
		}
		s.Cwnd += inc
		return
	}
	total := l.totalCwnd()
	if total <= 0 {
		total = s.Cwnd
	}
	alpha := l.alpha(total)
	inc := alpha * mss * float64(ackedBytes) / total
	solo := mss * float64(ackedBytes) / s.Cwnd
	if solo < inc {
		inc = solo
	}
	s.Cwnd += inc
}

func (l *liaCC) totalCwnd() float64 {
	var t float64
	for _, sub := range l.conn.subflows {
		t += sub.Cwnd
	}
	return t
}

// alpha computes the RFC 6356 coupling factor. Subflows without an RTT
// sample yet are skipped; if none has a sample, alpha degenerates to 1
// (plain Reno growth), which matches a fresh connection still in slow
// start on every path.
func (l *liaCC) alpha(total float64) float64 {
	var best float64     // max_i cwnd_i / rtt_i^2
	var sumRatio float64 // sum_i cwnd_i / rtt_i
	for _, sub := range l.conn.subflows {
		rtt := sub.SRTT()
		if rtt <= 0 {
			continue
		}
		sec := rtt.Seconds()
		r := sub.Cwnd / (sec * sec)
		if r > best {
			best = r
		}
		sumRatio += sub.Cwnd / sec
	}
	if sumRatio <= 0 || best <= 0 {
		return 1
	}
	return total * best / (sumRatio * sumRatio)
}

var _ tcp.CongestionControl = (*liaCC)(nil)
