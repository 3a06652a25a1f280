package tcp

// DataSource supplies data-level bytes to a sender. Plain TCP uses the
// identity BytesSource; MPTCP connections implement DataSource to map
// connection-level data onto subflows; MMPTCP uses a capped source for
// its packet-scatter phase.
//
// Allocation is permanent: once a chunk of data-level sequence space is
// granted to a sender, that sender is responsible for delivering it
// (including retransmissions). This mirrors MPTCP schedulers of the
// paper's era, which did not opportunistically re-inject data stranded
// on a stalled subflow.
type DataSource interface {
	// Next allocates up to maxBytes of new data. It returns the
	// data-level sequence number of the granted chunk, the number of
	// bytes granted (0 if nothing is available right now), and whether
	// the source is permanently exhausted for this sender.
	Next(maxBytes int) (dataSeq int64, n int, exhausted bool)
}

// BytesSource is the identity source used by plain TCP flows: data-level
// sequence equals subflow sequence. Size < 0 means unbounded (a
// long-running background flow that never finishes).
type BytesSource struct {
	Size int64 // total bytes, or -1 for unbounded
	next int64
}

// Next implements DataSource.
func (b *BytesSource) Next(maxBytes int) (int64, int, bool) {
	if b.Size >= 0 && b.next >= b.Size {
		return b.next, 0, true
	}
	n := int64(maxBytes)
	if b.Size >= 0 && b.next+n > b.Size {
		n = b.Size - b.next
	}
	seq := b.next
	b.next += n
	return seq, int(n), b.Size >= 0 && b.next >= b.Size
}
