package sim

import "testing"

// queueAccount is what the white-box tests may know about the queue: how
// many entries it holds (cancelled ones included), how many of them sit in
// lanes or are cancelled, and how many slots its backing arrays have.
type queueAccount struct {
	entries, laneEntries, cancelled, capacity int
}

// queueStats counts the heap and every lane afresh and checks the
// engine's running counters against the count, every lane's FIFO order,
// and its two lane indexes against the lanes: every cached head is its
// lane's ring head (the zero entry when the lane is empty), every lookup
// way is empty or names a lane whose delay hashes to its slot, and every
// lane is named exactly once.
func queueStats(e *Engine) queueAccount {
	a := queueAccount{entries: len(e.heap), capacity: cap(e.heap)}
	dead := func(en entry) {
		if en.ev.cancelled {
			a.cancelled++
		}
	}
	for _, en := range e.heap {
		dead(en)
	}
	for i := range e.nlanes {
		l := &e.lanes[i]
		a.entries += l.n
		a.laneEntries += l.n
		a.capacity += len(l.ring)
		mask := len(l.ring) - 1
		for j := 0; j < l.n; j++ {
			dead(l.ring[(l.head+j)&mask])
			if j > 0 && !l.ring[(l.head+j-1)&mask].less(l.ring[(l.head+j)&mask]) {
				panic("sim: a lane is out of (at, seq) order")
			}
		}
	}
	if a.entries != e.size || a.cancelled != e.cancelled {
		panic("sim: queue counters disagree with the queue's contents")
	}
	for i, got := range e.heads {
		var head entry
		if i < e.nlanes && e.lanes[i].n > 0 {
			head = e.lanes[i].ring[e.lanes[i].head]
		}
		if got != head {
			panic("sim: a cached lane head is not its lane's head")
		}
	}
	var named [maxLanes]int
	for h, ways := range e.slot {
		for _, w := range ways {
			if i := int(w) - 1; i >= 0 {
				if i >= e.nlanes || delaySlot(e.lanes[i].delay) != uint64(h) {
					panic("sim: a lookup slot names a lane of another delay")
				}
				named[i]++
			}
		}
	}
	for i := range e.nlanes {
		if named[i] != 1 {
			panic("sim: a lane is not named exactly once, in its delay's lookup slot")
		}
	}
	return a
}

// A queue program is a byte string, two bytes a step: an opcode (modulo
// numOps) and an argument. The differential test and the fuzz target run
// it against an Engine and, in lock-step, against a model that keeps the
// live events in a plain list and finds the next one by sorting on
// (at, seq) — no lanes, no heap, no lazy cancellation.
const (
	opSchedule = iota
	opScheduleArg
	opAt
	opAtArg
	opAtArgKeyed
	opCancel
	opTimerReset
	opRunUntil
	opStep
	opPeek
	opAdvance
	opReset
	numOps
)

// progDelays are the delays a program's argument selects from: more
// recurring delays than there are lanes. 15.2 us + 4.8 us = 20 us, so a
// program can land events of two delays on one nanosecond.
var progDelays = [...]Time{
	0, 1, 4_800, 15_200, 20 * Microsecond, 52_800, 116_800, Millisecond,
	10 * Millisecond, 200 * Millisecond, 400 * Millisecond, Second,
}

// progDelay maps an argument to a delay: three quarters of the argument
// space recur, the rest are one-off.
func progDelay(arg byte) Time {
	if arg < 192 {
		return progDelays[int(arg)%len(progDelays)]
	}
	return Time(arg-191) * 977
}

// modelEvent is the model's record of one scheduled event.
type modelEvent struct {
	at    Time
	key   uint64 // insertion sequence, or the explicit key of a keyed event
	arg   byte
	hops  int // callbacks still to chain: each schedules one successor
	ev    *Event
	timer int // index of the timer this is the expiry of, or -1
}

type queueModel struct {
	t       *testing.T
	e       *Engine
	now     Time
	seq     uint64
	fired   uint64
	pending []*modelEvent // live events in scheduling order
	timers  [3]*Timer
	expiry  [3]*modelEvent
	fire    func(any)
}

func newQueueModel(t *testing.T) *queueModel {
	m := &queueModel{t: t, e: NewEngine()}
	m.fire = func(a any) { m.onFire(a.(*modelEvent)) }
	m.arm()
	return m
}

// arm configures what a fresh or Reset engine does not carry: the timers
// (whose handles a Reset invalidates).
func (m *queueModel) arm() {
	for i := range m.timers {
		i := i
		m.expiry[i] = nil
		m.timers[i] = NewTimer(m.e, func() {
			r := m.expiry[i]
			m.expiry[i] = nil
			m.onFire(r)
		})
	}
}

// next returns the index of the model's earliest event, -1 when empty.
func (m *queueModel) next() int {
	best := -1
	for i, r := range m.pending {
		if best < 0 || r.at < m.pending[best].at || (r.at == m.pending[best].at && r.key < m.pending[best].key) {
			best = i
		}
	}
	return best
}

func (m *queueModel) peek() Time {
	if i := m.next(); i >= 0 {
		return m.pending[i].at
	}
	return MaxTime
}

func (m *queueModel) remove(r *modelEvent) {
	for i, p := range m.pending {
		if p == r {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
	m.t.Fatalf("event at %v key %d is not pending in the model", r.at, r.key)
}

// add records an event scheduled delay d ahead of the clock.
func (m *queueModel) add(d Time, arg byte, hops int) *modelEvent {
	m.seq++
	r := &modelEvent{at: m.now + d, key: m.seq, arg: arg, hops: hops, timer: -1}
	m.pending = append(m.pending, r)
	return r
}

// onFire is every callback: the engine must have picked the event the
// model would, at the model's time. Chained events schedule a successor
// one delay further down the table, as a packet does hop by hop.
func (m *queueModel) onFire(r *modelEvent) {
	i := m.next()
	if i < 0 || m.pending[i] != r {
		m.t.Fatalf("engine fired the event at %v key %d; the model's next is index %d of %d", r.at, r.key, i, len(m.pending))
	}
	m.remove(r)
	m.fired++
	m.now = r.at
	if m.e.Now() != r.at {
		m.t.Fatalf("clock %v while firing the event at %v", m.e.Now(), r.at)
	}
	if r.hops > 0 {
		c := m.add(progDelay(r.arg+1), r.arg+1, r.hops-1)
		c.ev = m.e.ScheduleArg(progDelay(c.arg), m.fire, c)
	}
}

func (m *queueModel) step(op, arg byte) {
	e, d := m.e, progDelay(arg)
	switch op % numOps {
	case opSchedule:
		r := m.add(d, arg, 0)
		r.ev = e.Schedule(d, func() { m.onFire(r) })
	case opScheduleArg:
		r := m.add(d, arg, int(arg)%4)
		r.ev = e.ScheduleArg(d, m.fire, r)
	case opAt:
		r := m.add(d, arg, 0)
		r.ev = e.At(r.at, func() { m.onFire(r) })
	case opAtArg:
		r := m.add(d, arg, int(arg)%3)
		r.ev = e.AtArg(r.at, m.fire, r)
	case opAtArgKeyed:
		// The key is unique (it embeds the sequence number the event
		// consumed) and is, by the argument, inside the range of
		// insertion sequences, above it, or in the coordinator's
		// top-bit space.
		r := m.add(d, arg, 0)
		r.key |= uint64(arg%4) << 32
		if arg >= 128 {
			r.key |= 1 << 63
		}
		r.ev = e.AtArgKeyed(r.at, m.fire, r, r.key)
	case opCancel:
		if len(m.pending) == 0 {
			return
		}
		// 0 picks the oldest live event, 255 the newest.
		r := m.pending[int(arg)*len(m.pending)/256]
		if r.timer >= 0 {
			m.timers[r.timer].Stop()
			m.expiry[r.timer] = nil
		} else {
			r.ev.Cancel()
		}
		m.remove(r)
	case opTimerReset:
		i := int(arg) % len(m.timers)
		if m.expiry[i] != nil {
			m.remove(m.expiry[i])
		}
		m.expiry[i] = m.add(d, arg, 0)
		m.expiry[i].timer = i
		m.timers[i].Reset(d)
	case opRunUntil:
		limit := m.now + d
		e.RunUntil(limit)
		if head := m.peek(); head <= limit {
			m.t.Fatalf("RunUntil(%v) left the event at %v unfired", limit, head)
		}
		m.now = limit
		if e.Now() != limit {
			m.t.Fatalf("clock %v after RunUntil(%v)", e.Now(), limit)
		}
	case opStep:
		before, live := m.fired, len(m.pending) > 0
		if ok := e.Step(); ok != live || (ok && m.fired != before+1) {
			m.t.Fatalf("Step = %v and fired %d with %d pending", ok, m.fired-before, len(m.pending))
		}
	case opPeek:
		if got, want := e.PeekTime(), m.peek(); got != want {
			m.t.Fatalf("PeekTime = %v, want %v", got, want)
		}
	case opAdvance:
		to := m.now + d
		if head := m.peek(); to > head {
			to = head
		}
		e.AdvanceTo(to)
		m.now = to
		if e.Now() != to {
			m.t.Fatalf("clock %v after AdvanceTo(%v)", e.Now(), to)
		}
	case opReset:
		e.Reset()
		m.now, m.seq, m.fired, m.pending = 0, 0, 0, nil
		m.arm()
	}
	if e.Processed() != m.fired || pending(e) != len(m.pending) || e.seq != m.seq {
		m.t.Fatalf("after op %d: processed %d pending %d seq %d, model %d %d %d",
			op%numOps, e.Processed(), pending(e), e.seq, m.fired, len(m.pending), m.seq)
	}
	queueStats(e)
}

// runQueueProgram executes prog, then drains the queue: every event still
// pending must fire, in the model's order.
func runQueueProgram(t *testing.T, prog []byte) *queueModel {
	m := newQueueModel(t)
	for i := 0; i+1 < len(prog); i += 2 {
		m.step(prog[i], prog[i+1])
	}
	m.e.Run()
	if len(m.pending) != 0 || pending(m.e) != 0 {
		t.Fatalf("%d events pending after Run (model %d)", pending(m.e), len(m.pending))
	}
	return m
}

// rep returns steps repeated n times.
func rep(n int, steps ...byte) []byte {
	var prog []byte
	for i := 0; i < n; i++ {
		prog = append(prog, steps...)
	}
	return prog
}

// queueSeeds are the hand-written programs of the seed corpus. The
// arguments index progDelays; promoteAfter recurrences give a delay its
// lane.
func queueSeeds() map[string][]byte {
	const d15, d20, d4800, d116, d200ms = 3, 4, 2, 6, 9
	seeds := map[string][]byte{}

	// More recurring delays than lanes: every table delay recurs, with
	// steps in between so lanes empty and are re-assigned.
	var over []byte
	for round := 0; round < 3; round++ {
		for d := byte(0); d < byte(len(progDelays)); d++ {
			over = append(over, rep(promoteAfter+2, opScheduleArg, d, opStep, 0)...)
		}
	}
	seeds["more-delays-than-lanes"] = over

	// A delay that changes mid-run, as a link's does under SetRateFactor
	// or SetExtraDelay: the old lane drains while the new delay earns one.
	seeds["delay-changes"] = append(rep(30, opScheduleArg, d116, opSchedule, d20, opStep, 0),
		rep(30, opScheduleArg, d116+1, opSchedule, d20, opStep, 0)...)

	// Keyed events inside a populated lane's time range, with keys inside
	// the sequence range (argument 4), above it (5) and in the top-bit
	// space (132), then more events for the lane.
	seeds["keyed-inside-lane"] = append(append(rep(12, opSchedule, d20, opAdvance, 1),
		opAtArgKeyed, d20, opAtArgKeyed, d20+1, opAtArgKeyed, 128+d20, opAtArgKeyed, d15),
		rep(6, opSchedule, d20, opAtArgKeyed, 128+d20)...)

	// Same-nanosecond ties across two lanes and the heap: twelve 20 us
	// events at t=0 (seven on the heap, the rest on the new lane), then
	// twelve 4.8 us events at t=15.2 us, all due at 20 us.
	seeds["ties-across-lanes-and-heap"] = append(append(rep(12, opSchedule, d20),
		opAdvance, d15), rep(12, opScheduleArg, d4800)...)

	// Cancel a lane's head and tail (and peek past the dead head): of 16
	// events, index 7 is the first on the lane and 15 the last.
	seeds["cancel-lane-head-and-tail"] = append(rep(16, opSchedule, d20),
		opCancel, 7*16, opCancel, 255, opPeek, 0, opStep, 0, opCancel, 0, opPeek, 0)

	// Compaction of a wrapped lane ring with live and dead entries
	// interleaved: fill, fire a few so head moves off slot 0, refill, then
	// cancel from the middle until dead entries outnumber live ones.
	seeds["compact-wrapped-lane"] = append(append(append(rep(120, opSchedule, d20, opAdvance, 1),
		rep(40, opStep, 0, opSchedule, d20)...), rep(90, opCancel, 100, opCancel, 200)...),
		rep(10, opSchedule, d20, opPeek, 0)...)

	// Compaction that removes a lane's head: cancel the oldest events
	// (the heap's, then the lane's) until dead entries outnumber live
	// ones, so the lane's first live entry becomes its head.
	seeds["compact-dead-lane-head"] = append(append(rep(100, opSchedule, d20, opAdvance, 1),
		rep(60, opCancel, 0)...), rep(10, opSchedule, d20, opStep, 0)...)

	// Three delays with one lookup slot (1 ns, 4.8 us and the one-off
	// 18,563 ns): the third waits on the heap while both of the slot's
	// lanes are busy, then takes one over once it drains, and the first
	// comes back to take over the other.
	seeds["three-delays-one-slot"] = append(append(append(append(rep(10, opSchedule, 1),
		rep(10, opSchedule, 2)...), rep(10, opSchedule, 210)...), opRunUntil, d15),
		append(rep(10, opSchedule, 210), rep(10, opSchedule, 1)...)...)

	// Reset with lanes populated, then the same delays again.
	seeds["reset-with-lanes"] = append(append(rep(20, opScheduleArg, d20, opTimerReset, d200ms, opSchedule, d116),
		opStep, 0, opReset, 0), rep(20, opScheduleArg, d20, opTimerReset, d200ms, opRunUntil, d4800)...)
	return seeds
}

// TestQueueOrder runs the seed corpus and a few hundred random programs
// against the model.
func TestQueueOrder(t *testing.T) {
	for name, prog := range queueSeeds() {
		prog := prog
		t.Run(name, func(t *testing.T) {
			m := runQueueProgram(t, prog)
			if m.e.lanePushes == 0 {
				t.Error("no push took a lane")
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := NewRNG(7)
		for i := 0; i < 300; i++ {
			prog := make([]byte, 2*(1+rng.Intn(1500)))
			for j := range prog {
				prog[j] = byte(rng.Uint32())
			}
			// Bias half the programs towards scheduling, so queues
			// grow deep enough to compact and lanes to wrap.
			if i%2 == 0 {
				for j := 0; j < len(prog); j += 2 {
					if prog[j]%numOps >= opRunUntil && rng.Intn(4) != 0 {
						prog[j] = byte(rng.Intn(opRunUntil))
					}
				}
			}
			runQueueProgram(t, prog)
		}
	})
}

// FuzzQueueOrder is the native fuzz target over queue programs.
func FuzzQueueOrder(f *testing.F) {
	for _, prog := range queueSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip("program longer than the model's quadratic scans are worth")
		}
		runQueueProgram(t, prog)
	})
}

// TestLaneShare drives the four-delay mix measured on the paper's K=8
// experiment, plus 0.1 % one-off delays, and checks that lanes took at
// least 99 % of the pushes.
func TestLaneShare(t *testing.T) {
	h := newHold(4_000, true)
	for i := 0; i < 200_000; i++ {
		h.step()
	}
	if e := h.e; e.lanePushes*100 < e.seq*99 {
		t.Errorf("lanes took %d of %d pushes, want >= 99 %%", e.lanePushes, e.seq)
	}
	queueStats(h.e)
}

// TestResetKeepsQueueCapacity pins the pooling half of Reset for the heap
// and the lanes alike: pending handles read as cancelled, nothing is
// queued, no backing array is released, and refilling allocates nothing.
func TestResetKeepsQueueCapacity(t *testing.T) {
	e := NewEngine()
	var last *Event
	fill := func() {
		for i := 0; i < 1000; i++ {
			e.Schedule(Time(1000+i), nop) // distinct delays: the heap
			last = e.Schedule(20*Microsecond, nop)
		}
	}
	fill()
	before := queueStats(e)
	if before.laneEntries < 900 || before.entries-before.laneEntries < 900 {
		t.Fatalf("setup: %d entries, %d of them in lanes", before.entries, before.laneEntries)
	}
	e.Reset()
	if after := queueStats(e); after.entries != 0 || after.capacity != before.capacity {
		t.Errorf("after Reset: %d entries, capacity %d; want 0 and %d", after.entries, after.capacity, before.capacity)
	}
	if last.Pending() || pending(e) != 0 || e.PeekTime() != MaxTime {
		t.Errorf("after Reset: handle pending %v, Pending %d, PeekTime %v", last.Pending(), pending(e), e.PeekTime())
	}
	if allocs := testing.AllocsPerRun(20, func() { fill(); e.Reset() }); allocs != 0 {
		t.Errorf("refill and Reset allocate %.1f per cycle, want 0", allocs)
	}
}
