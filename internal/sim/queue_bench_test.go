package sim

import "testing"

// hold is the classic hold model of an event queue at a fixed pending
// depth: fire the earliest event, schedule a new one. With mix set, delays
// follow the shares measured on the paper's K=8 experiment — 20 us
// propagation 48.6 %, 116.8 us data serialisation 24.8 %, 4.8 us ACK
// serialisation 23.8 %, 200 ms minimum RTO 2.8 %, and 0.1 % one-off delays
// — and the RTO share is a Timer.Reset (cancel and re-push, as the
// transports do per ACK), so a third of the queue is dead timers.
// Otherwise delays are uniform on [1 ns, 1 ms], which no lane can serve.
//
// The file uses only the engine's exported API, so it also builds against
// a commit with a different queue.
type hold struct {
	e      *Engine
	rng    *RNG
	mix    bool
	timers []*Timer
	ops    int
}

func nop() {}

func newHold(depth int, mix bool) *hold {
	h := &hold{e: NewEngine(), rng: NewRNG(1), mix: mix}
	for i := 0; i < 256; i++ {
		h.timers = append(h.timers, NewTimer(h.e, nop))
	}
	for pending(h.e) < depth {
		h.push()
	}
	return h
}

func (h *hold) push() {
	if !h.mix {
		h.e.Schedule(Time(1+h.rng.Intn(1_000_000)), nop)
		return
	}
	switch u := h.rng.Intn(10_000); {
	case u < 10:
		h.e.Schedule(Time(1+h.rng.Intn(1_000_000)), nop)
	case u < 4_870:
		h.e.Schedule(20*Microsecond, nop)
	case u < 7_350:
		h.e.Schedule(116_800, nop)
	case u < 9_730:
		h.e.Schedule(4_800, nop)
	default:
		h.ops++
		h.timers[h.ops%len(h.timers)].Reset(200 * Millisecond)
	}
}

func (h *hold) step() {
	h.e.Step()
	h.push()
}

func BenchmarkQueueHold(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
		mix   bool
	}{
		{"lanes-4k", 4_000, true},
		{"random-1e5", 100_000, false},
		{"random-1e6", 1_000_000, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := newHold(bc.depth, bc.mix)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.step()
			}
		})
	}
}
