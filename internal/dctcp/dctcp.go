// Package dctcp implements Data Center TCP (Alizadeh et al., SIGCOMM
// 2010) as an additional single-path baseline. The paper's §1 positions
// DCTCP as the class of latency-oriented transports MMPTCP competes
// with: effective for short flows, but requiring switch support (ECN
// marking) and unable to exploit multipath.
//
// The switch side is netem's ECN threshold marking (mark when the
// instantaneous queue exceeds K packets); the receiver echoes CE marks
// on every ACK (this simulator ACKs per packet, which matches DCTCP's
// intent of precise mark feedback); this package provides the sender's
// congestion control: an EWMA estimate alpha of the marked byte
// fraction, updated once per window of data, and a proportional window
// cut of alpha/2 at most once per window.
package dctcp

import "repro/internal/tcp"

// g is the EWMA gain for alpha: 1/16, the gain the DCTCP paper uses. Its
// §3.4 bound, g < 1.386/sqrt(2(C·RTT + K)), keeps alpha averaging over a
// whole congestion episode instead of chasing one window's marks.
const g = 1.0 / 16

// CC is the DCTCP congestion control for one tcp.Sender. It grows the
// window exactly like Reno and reacts to ECN echoes instead of waiting
// for loss. Create one CC per sender.
type CC struct {
	alpha       float64
	initialized bool

	// Per-observation-window accounting (one window of data, tracked
	// by cumulative-ACK position).
	ackedBytes  int64
	markedBytes int64
	windowEnd   int64 // update alpha when snd.una passes this

	// cutEnd rate-limits window reductions to one per window of data.
	cutEnd int64

	// Stats.
	Cuts         int64
	AlphaUpdates int64
}

// OnAck implements tcp.CongestionControl (Reno-style growth).
func (c *CC) OnAck(s *tcp.Sender, ackedBytes int) {
	tcp.RenoCC{}.OnAck(s, ackedBytes)
}

// OnECNEcho implements tcp.ECNCapable: account the marked fraction,
// update alpha once per window, and cut proportionally when marks
// arrive.
func (c *CC) OnECNEcho(s *tcp.Sender, ackedBytes int, marked bool) {
	if !c.initialized {
		c.initialized = true
		// Start pessimistic (alpha=1, as Linux does): the first mark
		// halves the window; alpha then converges to the true marked
		// fraction within a few windows.
		c.alpha = 1
		c.windowEnd = s.Acked() + s.Flight()
		c.cutEnd = 0
	}
	c.ackedBytes += int64(ackedBytes)
	if marked {
		c.markedBytes += int64(ackedBytes)
	}

	// End of an observation window: fold the marked fraction into the
	// EWMA and start the next window.
	if s.Acked()+int64(ackedBytes) >= c.windowEnd {
		if c.ackedBytes > 0 {
			f := float64(c.markedBytes) / float64(c.ackedBytes)
			c.alpha = (1-g)*c.alpha + g*f
			c.AlphaUpdates++
		}
		c.ackedBytes = 0
		c.markedBytes = 0
		c.windowEnd = s.Acked() + int64(ackedBytes) + s.Flight()
	}

	// Proportional cut, at most once per window of data.
	if marked && s.Acked() >= c.cutEnd {
		mss := float64(tcp.MSS)
		s.Cwnd *= 1 - c.alpha/2
		if s.Cwnd < mss {
			s.Cwnd = mss
		}
		// Leaving slow start on the first mark, like DCTCP does.
		if s.Ssthresh > s.Cwnd {
			s.Ssthresh = s.Cwnd
		}
		c.cutEnd = s.Acked() + s.Flight()
		c.Cuts++
	}
}

var (
	_ tcp.CongestionControl = (*CC)(nil)
	_ tcp.ECNCapable        = (*CC)(nil)
)
