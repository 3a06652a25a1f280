// Package tcp implements the NewReno TCP endpoints the simulation's
// transport protocols are built from: a sender state machine with slow
// start, congestion avoidance, fast retransmit/recovery (RFC 6582) and
// RFC 6298 retransmission timeouts, and a receiver with a reorder buffer
// and cumulative ACKs.
//
// The same sender drives three protocols: plain TCP (identity data
// source, fixed source port), MPTCP subflows (connection data source,
// per-subflow source port, LIA coupled congestion control) and MMPTCP's
// packet-scatter phase (per-packet randomised source port and a
// topology-derived duplicate-ACK threshold).
package tcp

// SeqSet tracks a set of byte intervals over a sequence space, used by
// receivers for reorder buffers (subflow level) and delivery tracking
// (data level). Intervals are half-open [start, end) and kept sorted and
// disjoint. The zero value is an empty set.
type SeqSet struct {
	ivs []interval
}

type interval struct{ start, end int64 }

// Add inserts [start, end), merging with existing intervals. Adding an
// empty or inverted interval is a no-op. It returns the number of bytes
// newly covered (0 if the range was already fully present).
func (s *SeqSet) Add(start, end int64) int64 {
	if start >= end {
		return 0
	}
	// Find insertion window: all intervals overlapping or adjacent to
	// [start, end).
	lo := 0
	for lo < len(s.ivs) && s.ivs[lo].end < start {
		lo++
	}
	hi := lo
	for hi < len(s.ivs) && s.ivs[hi].start <= end {
		hi++
	}
	newStart, newEnd := start, end
	existing := int64(0)
	for i := lo; i < hi; i++ {
		iv := s.ivs[i]
		if iv.start < newStart {
			newStart = iv.start
		}
		if iv.end > newEnd {
			newEnd = iv.end
		}
		// Count already-covered bytes within [start, end).
		os, oe := iv.start, iv.end
		if os < start {
			os = start
		}
		if oe > end {
			oe = end
		}
		if oe > os {
			existing += oe - os
		}
	}
	merged := interval{newStart, newEnd}
	// Splice merged over s.ivs[lo:hi] in place: receivers call Add once
	// per data packet, so the temp-slice idiom would allocate on the
	// hottest receive path.
	switch {
	case hi == lo:
		// Pure insertion: open a slot at lo. A set's first interval sizes
		// it for a few holes at once rather than growing 1, 2, 4.
		if cap(s.ivs) == 0 {
			s.ivs = make([]interval, 0, 4)
		}
		s.ivs = append(s.ivs, interval{})
		copy(s.ivs[lo+1:], s.ivs[lo:])
		s.ivs[lo] = merged
	default:
		s.ivs[lo] = merged
		if hi > lo+1 {
			s.ivs = append(s.ivs[:lo+1], s.ivs[hi:]...)
		}
	}
	return (end - start) - existing
}

// ContiguousFrom returns the end of the contiguous range starting at
// base, or base itself if base is not covered. For a receiver this is
// rcv.nxt when called with the initial sequence number.
func (s *SeqSet) ContiguousFrom(base int64) int64 {
	for _, iv := range s.ivs {
		if iv.start <= base && base < iv.end {
			return iv.end
		}
	}
	return base
}
