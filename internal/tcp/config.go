package tcp

import "repro/internal/sim"

// The TCP parameters every protocol in the simulation shares. They mirror
// the ns-3 setup of the paper's era, and the paper varies none of them.
const (
	// MSS is the payload bytes per segment: 1400.
	MSS = 1400
	// DupAckThreshold is the number of duplicate ACKs that triggers fast
	// retransmit: 3. MMPTCP's packet-scatter phase raises its own.
	DupAckThreshold = 3

	headerBytes   = 60 // on-wire header overhead per packet
	initialWindow = 2  // initial congestion window, in segments
	// minRTO is the lower bound on the retransmission timeout: 200 ms,
	// the mechanism behind the paper's short-flow tail.
	minRTO     = 200 * sim.Millisecond
	maxRTO     = 60 * sim.Second // upper bound on the (backed-off) timeout
	initialRTO = 1 * sim.Second  // RTO before the first RTT sample
)
