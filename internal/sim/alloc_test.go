package sim

import (
	"testing"
	"unsafe"
)

// TestEventRecordSize pins the queue's layout: a pooled event is a
// callback, its argument and a cancelled flag, 32 bytes (Go's 32-byte
// size class, two to a cache line), and a queue entry is the ordering key
// beside the event pointer, 24 bytes.
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 32", n)
	}
	if n := unsafe.Sizeof(entry{}); n != 24 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want 24", n)
	}
}

// TestScheduleArg covers the arg-carrying scheduling variant: the value
// is delivered, and ordering interleaves with closure events by
// scheduling order.
func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	e.ScheduleArg(Millisecond, record, 1)
	e.Schedule(Millisecond, func() { got = append(got, 2) })
	e.AtArg(Millisecond, record, 3)
	e.At(Millisecond, func() { got = append(got, 4) })
	e.Run()
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("got %v, want [1 2 3 4]", got)
	}
	if e.Processed() != 4 {
		t.Errorf("processed = %d, want 4", e.Processed())
	}
}

// TestEventPoolReuse checks that fired events are recycled: a long
// schedule/run cycle must stop allocating once the pool is primed, through
// each of the four ways to schedule. Schedule and At of a pre-built
// func() carry it in the event's arg slot, which holds a func value
// without allocating.
func TestEventPoolReuse(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	fnArg := func(any) {}
	for _, tc := range []struct {
		name     string
		schedule func()
	}{
		{"Schedule", func() { e.Schedule(Millisecond, fn) }},
		{"At", func() { e.At(e.Now()+Millisecond, fn) }},
		{"ScheduleArg", func() { e.ScheduleArg(Millisecond, fnArg, e) }},
		{"AtArg", func() { e.AtArg(e.Now()+Millisecond, fnArg, e) }},
	} {
		tick := func() {
			tc.schedule()
			e.Run()
		}
		for i := 0; i < 64; i++ {
			tick()
		}
		if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
			t.Errorf("steady-state %s+Run allocates %.1f per cycle, want 0", tc.name, allocs)
		}
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
