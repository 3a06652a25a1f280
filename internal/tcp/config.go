package tcp

import "repro/internal/sim"

// Config carries the TCP parameters shared by all protocols in the
// simulation. The defaults mirror the ns-3 setup of the paper's era:
// 1400-byte segments, an initial window of 2 segments, duplicate-ACK
// threshold 3, a 200 ms minimum RTO (the mechanism behind the paper's
// short-flow tail) and a 1 s initial RTO before the first RTT sample.
//
// Senders and receivers take a Config as complete: no field is defaulted
// on the way in, so start from DefaultConfig and change what differs.
type Config struct {
	MSS             int      // payload bytes per segment
	HeaderBytes     int      // on-wire header overhead per packet
	InitialWindow   int      // initial congestion window, in segments
	DupAckThreshold int      // duplicate ACKs triggering fast retransmit
	MinRTO          sim.Time // lower bound on the retransmission timeout
	MaxRTO          sim.Time // upper bound on the (backed-off) timeout
	InitialRTO      sim.Time // RTO before the first RTT sample
}

// DefaultConfig returns the simulation-wide default TCP parameters.
func DefaultConfig() Config {
	return Config{
		MSS:             1400,
		HeaderBytes:     60,
		InitialWindow:   2,
		DupAckThreshold: 3,
		MinRTO:          200 * sim.Millisecond,
		MaxRTO:          60 * sim.Second,
		InitialRTO:      1 * sim.Second,
	}
}
