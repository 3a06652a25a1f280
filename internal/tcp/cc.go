package tcp

// CongestionControl decides how the congestion window grows on
// acknowledgements. Window *decreases* (fast retransmit, timeout) are
// protocol-invariant and live in the Sender; only the increase rule
// differs between plain TCP (Reno) and MPTCP's coupled LIA, which is
// provided by the mptcp package with access to all sibling subflows.
type CongestionControl interface {
	// OnAck is called for every ACK that advances snd.una, with the
	// number of newly acknowledged bytes. Implementations grow s.Cwnd
	// (slow start below Ssthresh, their own rule above it).
	OnAck(s *Sender, ackedBytes int)
}

// ECNCapable is implemented by congestion controls that react to the
// receiver's ECN echoes (DCTCP). The sender calls OnECNEcho for every
// acknowledgement that advances snd.una, before the growth hook.
type ECNCapable interface {
	OnECNEcho(s *Sender, ackedBytes int, marked bool)
}

// RenoCC is standard TCP NewReno window growth: exponential slow start
// below ssthresh, one segment per RTT in congestion avoidance.
type RenoCC struct{}

// OnAck implements CongestionControl.
func (RenoCC) OnAck(s *Sender, ackedBytes int) {
	mss := float64(MSS)
	if s.Cwnd < s.Ssthresh {
		// Slow start: grow by at most one MSS per ACK.
		inc := float64(ackedBytes)
		if inc > mss {
			inc = mss
		}
		s.Cwnd += inc
		return
	}
	// Congestion avoidance: ~one MSS per window's worth of ACKs.
	s.Cwnd += mss * float64(ackedBytes) / s.Cwnd
}
