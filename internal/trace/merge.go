package trace

import "sort"

// MergeInto folds the events retained by each src recorder into dst,
// producing one time-ordered stream: events sort by virtual time, with
// ties broken by stream (dst's own events first, then each src in
// argument order) and record order within a stream. The sharded fabric
// uses this to combine per-shard flight recorders with the control
// engine's recorder at export time, so the merged trace is
// schema-identical to a sequential run's: same event records, same
// retention policy (a ring keeps the newest events of the merged stream;
// a full recorder keeps the first ones, up to its cap).
//
// Accounting is preserved: dst's Total after the merge is the sum of
// events accepted across all recorders, so Total - Len still counts every
// event a recorder did not keep. Nil sources are skipped; a nil dst is a
// no-op.
func MergeInto(dst *Recorder, srcs ...*Recorder) {
	if dst == nil {
		return
	}
	any := false
	for _, s := range srcs {
		if s != nil && (s.Total() > 0 || s.Len() > 0) {
			any = true
			break
		}
	}
	if !any {
		return
	}
	merged := dst.Events()
	total := dst.total
	for _, s := range srcs {
		if s == nil {
			continue
		}
		merged = append(merged, s.Events()...)
		total += s.total
	}
	// Stable sort on time alone: concatenation order (stream, then record
	// order) is exactly the tiebreak the determinism contract promises.
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].At < merged[j].At })

	dst.Reset()
	for _, e := range merged {
		dst.Record(e.At, e.Kind, e.Flow, e.Sub, e.Node, e.Peer, e.A, e.B)
	}
	dst.total = total
}
