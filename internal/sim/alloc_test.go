package sim

import "testing"

// TestScheduleArg covers the arg-carrying scheduling variant: the value
// is delivered, ordering interleaves with closure events by scheduling
// order, and cancellation works.
func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	e.ScheduleArg(Millisecond, record, 1)
	e.Schedule(Millisecond, func() { got = append(got, 2) })
	e.AtArg(Millisecond, record, 3)
	ev := e.ScheduleArg(Millisecond, record, 4)
	ev.Cancel()
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	if e.Processed() != 3 {
		t.Errorf("processed = %d, want 3", e.Processed())
	}
}

// TestEventPoolReuse checks that fired events are recycled: a long
// schedule/run cycle must stop allocating once the pool is primed.
func TestEventPoolReuse(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	tick := func() {
		e.Schedule(Millisecond, fn)
		e.Run()
	}
	for i := 0; i < 64; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Errorf("steady-state schedule+run allocates %.1f per cycle, want 0", allocs)
	}
}

// TestTimerReArmAllocationFree is the retransmit-timer regression: once
// warm, re-arming a timer (the per-ACK hot path of every transport) must
// not allocate — no closure per Reset, events recycled through the
// compaction path. A constant delay (the minimum RTO) re-arms through a
// lane, varying delays through the heap; both must hold the bound.
func TestTimerReArmAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lane  bool // whether the re-arms should go through a lane
		delay func(i int) Time
	}{
		{"constant-delay", true, func(int) Time { return Millisecond }},
		{"varying-delay", false, func(i int) Time { return Millisecond + Time(i%1000)*Microsecond }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			tm := NewTimer(e, func() {})
			// Warm up: grow the queue to its steady compaction cycle
			// and prime the event free list.
			i := 0
			for ; i < 4*compactFloor; i++ {
				tm.Reset(tc.delay(i))
			}
			if allocs := testing.AllocsPerRun(500, func() { i++; tm.Reset(tc.delay(i)) }); allocs != 0 {
				t.Errorf("timer re-arm allocates %.2f per Reset, want 0", allocs)
			}
			// The queue must not have grown without bound either:
			// cancelled entries are compacted away.
			got := queueStats(e)
			if got.entries > 2*compactFloor {
				t.Errorf("queue holds %d entries after re-arm storm, want <= %d", got.entries, 2*compactFloor)
			}
			if tc.lane != (got.laneEntries > 0) {
				t.Errorf("%d of %d entries sit in lanes", got.laneEntries, got.entries)
			}
		})
	}
}

// TestEngineHeapCapacityTrim checks that the queue's backing arrays
// shrink after a burst drains, through the heap (distinct delays) and
// through a lane (one delay, the clock stepping between pushes):
// Step-driven and RunUntil-driven loops alike must not pin a big run's
// worst-case footprint forever.
func TestEngineHeapCapacityTrim(t *testing.T) {
	fn := func() {}
	for _, tc := range []struct {
		name string
		lane bool // whether the burst should sit in a lane
		n    int
		fill func(e *Engine, i int)
	}{
		{"heap", false, 1 << 15, func(e *Engine, i int) { e.Schedule(Time(i)*Microsecond, fn) }},
		{"lane", true, 100_000, func(e *Engine, i int) {
			e.AdvanceTo(Time(i))
			e.Schedule(Second, fn)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			for i := 0; i < tc.n; i++ {
				tc.fill(e, i)
			}
			got := queueStats(e)
			if got.capacity < tc.n {
				t.Fatalf("setup: queue capacity %d < %d events", got.capacity, tc.n)
			}
			if inLane := got.laneEntries > tc.n/2; inLane != tc.lane {
				t.Fatalf("setup: %d of %d entries sit in lanes", got.laneEntries, got.entries)
			}
			for e.Step() {
			}
			if pending(e) != 0 {
				t.Fatalf("pending = %d after drain", pending(e))
			}
			if got := queueStats(e).capacity; got > 2*trimFloor {
				t.Errorf("queue capacity %d after drain, want <= %d (trimmed)", got, 2*trimFloor)
			}
			if got := len(e.free); got > 2*trimFloor {
				t.Errorf("free list holds %d events after drain, want <= %d (trimmed)", got, 2*trimFloor)
			}
			// The engine keeps working after trimming.
			fired := false
			e.Schedule(Millisecond, func() { fired = true })
			e.Run()
			if !fired {
				t.Error("event scheduled after trim never fired")
			}
		})
	}
}

// TestRecycledEventStaysInert locks the documented contract boundary: a
// handle to a fired or cancelled event reads as not pending even after
// the engine has recycled the underlying storage.
func TestRecycledEventStaysInert(t *testing.T) {
	e := NewEngine()
	fired := e.Schedule(Millisecond, func() {})
	e.Run()
	if fired.Pending() {
		t.Error("fired event still pending after recycling")
	}
	cancelled := e.Schedule(Millisecond, func() {})
	cancelled.Cancel()
	e.Run()
	if cancelled.Pending() {
		t.Error("cancelled event still pending after recycling")
	}
}
