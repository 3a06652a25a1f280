package sim

import "slices"

// event is the pooled record of one scheduled callback. Its time and
// sequence number live only in the queue entry that points at it; a Timer
// is the one holder of an event besides the queue, and the one thing that
// cancels it (Engine.cancel).
type event struct {
	fn        func(any)
	arg       any
	cancelled bool
}

// call is the callback of every event scheduled through Schedule or At:
// the func() rides in the arg slot, which holds a func value without
// allocating, so the engine has one callback form.
func call(a any) { a.(func())() }

// compactFloor is the minimum queue size below which cancelled events are
// simply left to be discarded lazily: compaction of a tiny queue saves
// nothing and would only add overhead to short runs.
const compactFloor = 64

// entry is one queue slot. The ordering key sits beside the event pointer
// so that comparing two entries never dereferences an event.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

// less orders entries by time, breaking ties by insertion sequence so that
// simultaneous events fire deterministically in scheduling order. Keyed
// events (AtArgKeyed) carry an explicit key in the sequence slot and sort
// among same-time events by that key instead.
func (a entry) less(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// lane is a FIFO of the events scheduled one fixed delay ahead of the
// clock. The clock never goes back and sequence numbers only grow, so such
// events arrive already in (at, seq) order: push appends, pop advances
// head, and no comparison against the rest of the queue is needed. Keyed
// events, whose key stands in for the sequence number, never join a lane.
type lane struct {
	delay Time
	ring  []entry // circular; len is a power of two
	head  int
	n     int
}

const (
	// maxLanes bounds the lane table, and with it the cached lane heads
	// every pop compares (three cache lines of entries).
	maxLanes = 8
	// laneCap is a new lane's ring size and heapCap the heap's initial
	// capacity, in 24-byte entries.
	laneCap = 16
	heapCap = 128
	// promoteAfter is how often a delay must recur, net of the other
	// delays sharing its candidate slot, before it is given a lane.
	promoteAfter = 8
)

// candidate counts the recurrences of a delay that has no lane yet.
type candidate struct {
	delay Time
	hits  int
}

// delaySlot is d's index in the candidate and lane lookup tables: the top
// four bits of a multiplicative hash, since delays are round numbers of
// nanoseconds and their low bits collide.
func delaySlot(d Time) uint64 { return uint64(d) * 0x9e3779b97f4a7c15 >> 60 }

// Engine is a single-threaded discrete-event simulator. The zero value is
// not ready for use; call NewEngine.
//
// The pending-event queue is a set of delay lanes over a binary heap. A
// network simulation schedules nearly all of its events at a handful of
// recurring delays (propagation, data and ACK serialisation, the minimum
// RTO); each such delay earns a lane, where push and pop are O(1), and the
// next event is the least of the lane heads and the heap root. Everything
// else — one-off delays, keyed events, a recurring delay when all lanes
// are busy — takes the heap. Every event a lane takes sorts after the
// lane's tail by construction (see lane), so the firing order is (at, seq)
// whatever the lane table holds.
//
// Nothing on the per-event path scans the lane table. Each lane's head
// entry is mirrored in heads, so finding the next event compares at most
// maxLanes contiguous entries and the heap root without touching a ring;
// and push finds a delay's lane through the two ways of its delaySlot —
// the index that also keys the candidate counts — re-checking the lane's
// delay.
type Engine struct {
	now  Time
	heap []entry
	// lanes[:nlanes] are the lanes assigned so far, held in the engine
	// itself, beside the cached heads, rather than behind a pointer.
	lanes  [maxLanes]lane
	nlanes int
	// heads[i] is lanes[i]'s head entry, the zero entry while it is empty.
	heads [maxLanes]entry
	// slot[h] holds, for up to two lanes whose delays have delaySlot h,
	// one more than the lane's index; 0 is a free way. Every lane is named
	// once, in its delay's slot. A third delay sharing a slot takes over
	// one of its lanes only while that lane is empty.
	slot      [16][2]int8
	cand      [16]candidate
	size      int // entries in the heap and all lanes, cancelled included
	seq       uint64
	processed uint64
	cancelled int // cancelled events still sitting in the queue
	stopped   bool

	lanePushes uint64 // of the seq pushes so far, how many took a lane

	// free recycles fired and discarded events so steady-state scheduling
	// does not allocate. Events enter it from the run loop (after firing
	// or lazy discard of a cancellation), from compact and from Reset.
	free []*event
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{heap: make([]entry, 0, heapCap)}
}

// MaxTime is the largest representable virtual time. PeekTime returns it
// for an empty queue, and RunUntil treats it as "run to exhaustion".
const MaxTime = Time(1<<63 - 1)

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// PeekTime returns the timestamp of the earliest live event, or MaxTime
// when no live events are pending. Cancelled events sitting at the head
// of the queue are discarded on the way — a stale cancelled timer must not
// masquerade as the next event time, or the sharded coordinator's window
// computation (and AdvanceTo's past-event check) would trip on it.
func (e *Engine) PeekTime() Time {
	for e.size > 0 {
		src, en := e.min()
		if !en.ev.cancelled {
			return en.at
		}
		e.pop(src)
		e.cancelled--
		e.recycle(en.ev)
	}
	return MaxTime
}

// AdvanceTo raises the clock to t without executing anything. It is the
// conservative-window barrier primitive: after a shard has drained its
// events below the window edge, the coordinator advances every shard
// clock to the barrier time so control-plane callbacks observing Now()
// on paused shards read the barrier instant, not a stale event time.
// Advancing past a pending live event panics — that would reorder it
// into the past.
func (e *Engine) AdvanceTo(t Time) {
	if head := e.PeekTime(); head < t {
		panic("sim: AdvanceTo past a pending event")
	}
	if t > e.now {
		e.now = t
	}
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs fn after delay. A negative delay is treated as zero.
// Events scheduled for the same instant fire in scheduling order.
func (e *Engine) Schedule(delay Time, fn func()) { e.At(e.now+max(delay, 0), fn) }

// ScheduleArg runs fn(arg) after delay. It is Schedule for hot paths: the
// callback is typically a long-lived func value (created once per timer,
// link or endpoint) and the per-event state rides in arg, so re-arming
// does not allocate a closure.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) {
	e.at(e.now+max(delay, 0), fn, arg)
}

// At runs fn at absolute time t. Scheduling in the past panics: it is
// always a logic error in the protocol stacks built on this engine.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.at(t, call, fn)
}

// AtArg runs fn(arg) at absolute time t (the arg-carrying At).
func (e *Engine) AtArg(t Time, fn func(any), arg any) { e.at(t, fn, arg) }

// at queues fn(arg) at t and returns its record, which only a Timer keeps.
func (e *Engine) at(t Time, fn func(any), arg any) *event {
	ev := e.alloc(t, fn, arg)
	e.push(entry{t, e.seq, ev})
	return ev
}

// AtArgKeyed is AtArg with an explicit tie-breaking key in place of the
// insertion sequence. The sharded coordinator uses it to give committed
// cross-shard deliveries an ordering that is intrinsic to the sending
// shard's execution (source shard, send order) rather than to the
// barrier at which the commit happened, so same-nanosecond event order —
// and hence queue dynamics — never depends on where a barrier fell.
// Callers must supply keys above any insertion
// sequence the engine can reach (the coordinator sets the top bit), so
// keyed events sort after same-time locally scheduled ones. A keyed event
// always waits on the heap.
func (e *Engine) AtArgKeyed(t Time, fn func(any), arg any, key uint64) {
	ev := e.alloc(t, fn, arg)
	e.size++
	e.heapPush(entry{t, key, ev})
}

// alloc returns an event record for fn(arg) at time t, reusing the free
// list when possible, and takes the next sequence number: a keyed event
// uses one up too.
func (e *Engine) alloc(t Time, fn func(any), arg any) *event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	*ev = event{fn: fn, arg: arg}
	return ev
}

// recycle returns a fired or discarded event to the free list, dropping
// its callback and argument so that they can be collected.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.arg = nil, nil
	e.free = append(e.free, ev)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to its initial state — clock at zero, no
// pending events, all counters cleared — while keeping the allocated
// capacity (heap backing array, lane rings and event free list), so a
// pooled engine's steady-state reuse allocates nothing.
// Pending events are discarded without firing, and a Timer armed before
// Reset must not be used after it. This is the sim half of the
// run-instance pooling contract: after Reset the engine is observationally
// identical to NewEngine() output.
func (e *Engine) Reset() {
	drop := func(queued []entry) {
		for _, en := range queued {
			if en.ev != nil { // lane rings have vacant slots
				e.recycle(en.ev)
			}
		}
		clear(queued)
	}
	drop(e.heap)
	e.heap = e.heap[:0]
	for i := range e.nlanes {
		l := &e.lanes[i]
		drop(l.ring)
		l.head, l.n = 0, 0
	}
	e.heads = [maxLanes]entry{}
	e.size = 0
	e.now = 0
	e.seq = 0
	e.lanePushes = 0
	e.processed = 0
	e.cancelled = 0
	e.stopped = false
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= limit, then sets the clock
// to limit (or leaves it at the last event time if that is later, which
// cannot happen by construction). Cancelled events are discarded without
// being counted as processed.
func (e *Engine) RunUntil(limit Time) {
	e.stopped = false
	for !e.stopped && e.size > 0 {
		src, en := e.min()
		if en.at > limit {
			break
		}
		e.pop(src)
		e.fire(en)
	}
	if !e.stopped && e.now < limit && limit < MaxTime {
		e.now = limit
	}
}

// Step executes exactly one non-cancelled event, if any, and reports
// whether one was executed.
func (e *Engine) Step() bool {
	for e.size > 0 {
		src, en := e.min()
		e.pop(src)
		if e.fire(en) {
			return true
		}
	}
	return false
}

// fire runs a popped entry's callback at its timestamp and recycles its
// event. A cancelled event is only recycled; fire reports whether en ran.
func (e *Engine) fire(en entry) bool {
	ev := en.ev
	if ev.cancelled {
		e.cancelled--
		e.recycle(ev)
		return false
	}
	e.now = en.at
	fn, arg := ev.fn, ev.arg
	e.processed++
	fn(arg)
	e.recycle(ev)
	return true
}

// cancel stops a queued event from firing (Timer.Stop; a timer drops its
// event when it fires, so ev is always still queued) and compacts the
// queue once cancelled events outnumber live ones. Without this, a
// cancelled event occupies its slot until its timestamp is reached — for
// long-lived retransmit timers that are armed and re-armed on every ACK,
// the dead entries dominate the queue of a big run, in the heap and in
// the minimum-RTO lane alike.
func (e *Engine) cancel(ev *event) {
	ev.cancelled = true
	ev.fn, ev.arg = nil, nil
	e.cancelled++
	if e.size >= compactFloor && e.cancelled > e.size/2 {
		e.compact()
	}
}

// compact removes every cancelled event from the heap and the lanes
// (returning them to the free list) and restores the heap invariant. O(n),
// amortised against the >n/2 cancellations that triggered it.
func (e *Engine) compact() {
	kept := e.heap[:0]
	for _, en := range e.heap {
		if !en.ev.cancelled {
			kept = append(kept, en)
		} else {
			e.recycle(en.ev)
		}
	}
	if len(kept) < len(e.heap) {
		clear(e.heap[len(kept):]) // dropped slots hold no stale references
		e.heap = kept
		for i := len(kept)/2 - 1; i >= 0; i-- {
			e.siftDown(i)
		}
	}
	e.size = len(kept)
	for i := range e.nlanes {
		l := &e.lanes[i]
		mask, live := len(l.ring)-1, 0
		for j := 0; j < l.n; j++ {
			en := l.ring[(l.head+j)&mask]
			l.ring[(l.head+j)&mask] = entry{}
			if !en.ev.cancelled {
				l.ring[(l.head+live)&mask] = en
				live++
			} else {
				e.recycle(en.ev)
			}
		}
		l.n = live
		e.heads[i] = l.ring[l.head]
		e.size += live
	}
	e.cancelled = 0
}

// push queues a newly scheduled, unkeyed entry: on the lane of its delay
// when there is one, on the heap otherwise.
func (e *Engine) push(en entry) {
	e.size++
	if i := e.laneFor(en.at - e.now); i >= 0 {
		l := &e.lanes[i]
		if l.n == 0 {
			e.heads[i] = en
		}
		mask := len(l.ring) - 1
		if l.n > mask {
			l.resize(2 * len(l.ring))
			mask = len(l.ring) - 1
		}
		l.ring[(l.head+l.n)&mask] = en
		l.n++
		e.lanePushes++
		return
	}
	e.heapPush(en)
}

// heapPush adds en to the heap.
func (e *Engine) heapPush(en entry) {
	h := append(e.heap, en)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !en.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = en
	e.heap = h
}

// laneFor returns the index of the lane for events scheduled delay d
// ahead, or -1. A delay without a lane is counted in the candidate table
// — one slot per delaySlot value; a different delay arriving decrements
// the incumbent before replacing it, so a frequent delay outlasts one-off
// ones — and after promoteAfter net recurrences takes a free way of its
// slot with a new lane or an empty one, or with both ways taken, the lane
// of one that is empty. Otherwise it stays on the heap.
func (e *Engine) laneFor(d Time) int {
	h := delaySlot(d)
	ways := &e.slot[h]
	for _, w := range ways {
		if i := int(w) - 1; i >= 0 && e.lanes[i].delay == d {
			return i
		}
	}
	c := &e.cand[h]
	if c.delay != d {
		if c.hits > 0 {
			c.hits--
			return -1
		}
		c.delay = d
	}
	if c.hits++; c.hits < promoteAfter {
		return -1
	}
	c.hits = 0
	w := slices.Index(ways[:], 0)
	var i int
	switch {
	case w < 0:
		// Both ways serve other delays: take over one only once it is
		// empty, so that no delay ever holds two lanes.
		if w = slices.IndexFunc(ways[:], func(way int8) bool { return e.lanes[way-1].n == 0 }); w < 0 {
			return -1
		}
		i = int(ways[w]) - 1
	case e.nlanes < maxLanes:
		i = e.nlanes
		e.nlanes++
		e.lanes[i].ring = make([]entry, laneCap)
	default:
		if i = slices.IndexFunc(e.lanes[:], func(l lane) bool { return l.n == 0 }); i < 0 {
			return -1
		}
		old := &e.slot[delaySlot(e.lanes[i].delay)]
		old[slices.Index(old[:], int8(i+1))] = 0
	}
	e.lanes[i].delay = d
	ways[w] = int8(i + 1)
	return i
}

// resize moves the lane's entries to a fresh ring of c slots.
func (l *lane) resize(c int) {
	ring := make([]entry, c)
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// min returns the earliest queued entry and where it sits: a lane index,
// or -1 for the heap root. The queue must not be empty.
func (e *Engine) min() (src int, best entry) {
	src = -1
	if len(e.heap) > 0 {
		best = e.heap[0]
	}
	for i, h := range e.heads[:e.nlanes] {
		if h.ev != nil && (best.ev == nil || h.less(best)) {
			src, best = i, h
		}
	}
	return src, best
}

// pop removes the entry min found at src. A lane's vacated slots are
// zeroed, so its next slot is its new head even when it has none.
func (e *Engine) pop(src int) {
	e.size--
	if src >= 0 {
		l := &e.lanes[src]
		l.ring[l.head] = entry{}
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		e.heads[src] = l.ring[l.head]
		return
	}
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = entry{}
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	en := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(en) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = en
}
