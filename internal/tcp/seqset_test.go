package tcp

import (
	"testing"
	"testing/quick"
)

// covered is the total number of bytes in s.
func covered(s *SeqSet) int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.end - iv.start
	}
	return n
}

func TestSeqSetBasic(t *testing.T) {
	var s SeqSet
	if n := s.Add(0, 100); n != 100 {
		t.Fatalf("Add(0,100) new bytes = %d, want 100", n)
	}
	if n := s.Add(0, 100); n != 0 {
		t.Fatalf("duplicate Add new bytes = %d, want 0", n)
	}
	if n := s.Add(50, 150); n != 50 {
		t.Fatalf("overlapping Add new bytes = %d, want 50", n)
	}
	if got := covered(&s); got != 150 {
		t.Fatalf("Covered = %d, want 150", got)
	}
	if got := s.ContiguousFrom(0); got != 150 {
		t.Fatalf("ContiguousFrom(0) = %d, want 150", got)
	}
	if s.Fragments() != 1 {
		t.Fatalf("Fragments = %d, want 1", s.Fragments())
	}
}

func TestSeqSetGapAndMerge(t *testing.T) {
	var s SeqSet
	s.Add(0, 10)
	s.Add(20, 30)
	if s.Fragments() != 2 {
		t.Fatalf("Fragments = %d, want 2", s.Fragments())
	}
	if got := s.ContiguousFrom(0); got != 10 {
		t.Fatalf("ContiguousFrom(0) = %d, want 10 (hole at 10)", got)
	}
	if got := s.ContiguousFrom(25); got != 30 {
		t.Fatalf("ContiguousFrom(25) = %d, want 30", got)
	}
	// Fill the hole; everything merges.
	if n := s.Add(10, 20); n != 10 {
		t.Fatalf("hole fill new bytes = %d, want 10", n)
	}
	if s.Fragments() != 1 || covered(&s) != 30 {
		t.Fatalf("after merge: fragments=%d covered=%d", s.Fragments(), covered(&s))
	}
	if got := s.ContiguousFrom(0); got != 30 {
		t.Fatalf("ContiguousFrom(0) = %d, want 30", got)
	}
}

func TestSeqSetAdjacentMerge(t *testing.T) {
	var s SeqSet
	s.Add(10, 20)
	s.Add(20, 30) // adjacent, must merge
	if s.Fragments() != 1 {
		t.Fatalf("adjacent intervals did not merge: %d fragments", s.Fragments())
	}
	s.Add(0, 10)
	if s.Fragments() != 1 || s.ContiguousFrom(0) != 30 {
		t.Fatalf("fragments=%d contiguous=%d", s.Fragments(), s.ContiguousFrom(0))
	}
}

func TestSeqSetEmptyAdd(t *testing.T) {
	var s SeqSet
	if n := s.Add(10, 10); n != 0 {
		t.Fatalf("empty Add = %d", n)
	}
	if n := s.Add(10, 5); n != 0 {
		t.Fatalf("inverted Add = %d", n)
	}
	if covered(&s) != 0 || s.Fragments() != 0 {
		t.Fatal("empty adds modified the set")
	}
	if got := s.ContiguousFrom(0); got != 0 {
		t.Fatalf("ContiguousFrom on empty = %d", got)
	}
}

func TestSeqSetSpanningAdd(t *testing.T) {
	var s SeqSet
	s.Add(10, 20)
	s.Add(30, 40)
	s.Add(50, 60)
	// One add spanning all three plus the gaps.
	if n := s.Add(0, 70); n != 40 {
		t.Fatalf("spanning Add new bytes = %d, want 40", n)
	}
	if s.Fragments() != 1 || covered(&s) != 70 {
		t.Fatalf("fragments=%d covered=%d", s.Fragments(), covered(&s))
	}
}

// Property test against a naive bitmap model.
func TestSeqSetMatchesBitmapModel(t *testing.T) {
	type op struct{ Start, Len uint8 }
	f := func(ops []op) bool {
		var s SeqSet
		model := make([]bool, 600)
		for _, o := range ops {
			start := int64(o.Start)
			end := start + int64(o.Len%64)
			newBytes := s.Add(start, end)
			var modelNew int64
			for i := start; i < end; i++ {
				if !model[i] {
					model[i] = true
					modelNew++
				}
			}
			if newBytes != modelNew {
				return false
			}
		}
		// The covered byte count must match.
		var want int64
		for _, b := range model {
			if b {
				want++
			}
		}
		if covered(&s) != want {
			return false
		}
		// ContiguousFrom(0) must match the model's first hole.
		var contig int64
		for contig < int64(len(model)) && model[contig] {
			contig++
		}
		if s.ContiguousFrom(0) != contig {
			// When byte 0 is absent, ContiguousFrom(0) returns 0.
			if !(contig == 0 && s.ContiguousFrom(0) == 0) {
				return false
			}
		}
		// ContiguousFrom probes past the first hole: the end of the run
		// holding the probe, or the probe itself when it is absent.
		for probe := int64(0); probe < 64; probe += 7 {
			want := probe
			for want < int64(len(model)) && model[want] {
				want++
			}
			if s.ContiguousFrom(probe) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBytesSource(t *testing.T) {
	b := &BytesSource{Size: 3500}
	seq, n, done := b.Next(1400)
	if seq != 0 || n != 1400 || done {
		t.Fatalf("first Next = (%d,%d,%v)", seq, n, done)
	}
	seq, n, done = b.Next(1400)
	if seq != 1400 || n != 1400 || done {
		t.Fatalf("second Next = (%d,%d,%v)", seq, n, done)
	}
	seq, n, done = b.Next(1400)
	if seq != 2800 || n != 700 || !done {
		t.Fatalf("tail Next = (%d,%d,%v), want (2800,700,true)", seq, n, done)
	}
	_, n, done = b.Next(1400)
	if n != 0 || !done {
		t.Fatalf("exhausted Next = (%d,%v)", n, done)
	}
}

func TestBytesSourceUnbounded(t *testing.T) {
	b := &BytesSource{Size: -1}
	for i := 0; i < 1000; i++ {
		seq, n, done := b.Next(1400)
		if n != 1400 || done {
			t.Fatalf("unbounded Next = (%d,%d,%v)", seq, n, done)
		}
		if seq != int64(i)*1400 {
			t.Fatalf("seq = %d at step %d", seq, i)
		}
	}
}
