package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{5 * Millisecond, Millisecond, 3 * Millisecond, 2 * Millisecond} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{Millisecond, 2 * Millisecond, 3 * Millisecond, 5 * Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.Schedule(Millisecond, func() {
		fired = append(fired, "outer")
		e.Schedule(Millisecond, func() { fired = append(fired, "inner") })
		e.Schedule(0, func() { fired = append(fired, "immediate") })
	})
	e.Run()
	if len(fired) != 3 || fired[0] != "outer" || fired[1] != "immediate" || fired[2] != "inner" {
		t.Fatalf("got order %v", fired)
	}
	if e.Now() != 2*Millisecond {
		t.Errorf("clock = %v, want 2ms", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(Millisecond, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending after scheduling")
	}
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("event should not be pending after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Processed() != 0 {
		t.Errorf("processed = %d, want 0", e.Processed())
	}
}

// pending is the number of live events scheduled on e: cancelled events
// awaiting discard are not counted.
func pending(e *Engine) int { return e.size - e.cancelled }

// TestEngineCancelCompaction exercises the retransmit-timer pattern: a
// large population of far-future events that are cancelled long before
// their timestamps. The heap must shed them eagerly rather than carrying
// them to their deadlines, and only live events count as pending.
func TestEngineCancelCompaction(t *testing.T) {
	e := NewEngine()
	const n = 10 * compactFloor
	far := make([]*Event, n)
	for i := range far {
		far[i] = e.Schedule(Time(i+1)*Second, func() { t.Error("cancelled event fired") })
	}
	live := e.Schedule(Millisecond, func() {})
	if got := pending(e); got != n+1 {
		t.Fatalf("Pending = %d before cancels, want %d", got, n+1)
	}
	for _, ev := range far {
		ev.Cancel()
	}
	if got := pending(e); got != 1 {
		t.Errorf("Pending = %d after cancels, want 1", got)
	}
	// Compaction must have physically shed almost all dead entries: only
	// a below-floor residue may remain for lazy discard.
	got := queueStats(e)
	if got.entries > compactFloor {
		t.Errorf("queue holds %d events after mass cancel, want <= %d", got.entries, compactFloor)
	}
	if got.cancelled != got.entries-1 {
		t.Errorf("cancelled counter = %d with %d queued, want %d", got.cancelled, got.entries, got.entries-1)
	}
	e.Run()
	if live.Pending() {
		t.Error("live event still pending after Run")
	}
	if e.Processed() != 1 {
		t.Errorf("processed = %d, want 1", e.Processed())
	}
}

// TestEngineCancelSmallHeapLazy checks that below the compaction floor,
// cancelled events are discarded lazily but still never fire and never
// inflate Pending.
func TestEngineCancelSmallHeapLazy(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(Second, func() { t.Error("cancelled event fired") })
	b := e.Schedule(2*Second, func() { t.Error("cancelled event fired") })
	fired := 0
	e.Schedule(3*Second, func() { fired++ })
	a.Cancel()
	b.Cancel()
	a.Cancel() // double-cancel must not double-count
	if got := pending(e); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
	e.Run()
	if fired != 1 || e.Processed() != 1 {
		t.Errorf("fired=%d processed=%d, want 1/1", fired, e.Processed())
	}
	if got := pending(e); got != 0 {
		t.Errorf("Pending = %d after Run, want 0", got)
	}
}

// TestEngineCancelDuringRun cancels via the pop path (RunUntil discards)
// and checks the counter stays balanced so later compaction still works.
func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	for i := 0; i < 2*compactFloor; i++ {
		evs = append(evs, e.Schedule(Time(i+1)*Millisecond, func() {}))
	}
	// Cancel just under the compaction threshold so the dead events are
	// discarded by the run loop instead.
	for _, ev := range evs[:compactFloor] {
		ev.Cancel()
	}
	e.Run()
	if got := queueStats(e); got.cancelled != 0 || got.entries != 0 {
		t.Errorf("%d cancelled of %d queued after Run, want 0 of 0", got.cancelled, got.entries)
	}
	if want := uint64(compactFloor); e.Processed() != want {
		t.Errorf("processed = %d, want %d", e.Processed(), want)
	}
}

func TestEngineSetInterrupt(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 100; i++ {
		e.Schedule(Time(i)*Millisecond, func() { count++ })
	}
	stop := false
	e.SetInterrupt(10, func() bool { return stop })
	e.Schedule(25*Millisecond, func() { stop = true })
	e.Run()
	// The poll fires every 10 processed events; the stop flag is set at
	// t=25ms (the 26th processed event), so the run halts at the next
	// multiple-of-10 poll after that.
	if count >= 100 {
		t.Fatalf("interrupt did not stop the run (count=%d)", count)
	}
	// Clearing the hook lets the run resume to completion.
	e.SetInterrupt(0, nil)
	e.Run()
	if count != 100 {
		t.Errorf("count = %d after resume, want 100", count)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i)*Millisecond, func() { count++ })
	}
	e.RunUntil(5 * Millisecond)
	if count != 5 {
		t.Errorf("count = %d after RunUntil(5ms), want 5", count)
	}
	if e.Now() != 5*Millisecond {
		t.Errorf("clock = %v, want 5ms", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Errorf("count = %d after Run, want 10", count)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i)*Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("count = %d after Stop at 3, want 3", count)
	}
	// Run resumes where it left off.
	e.Run()
	if count != 10 {
		t.Errorf("count = %d after resume, want 10", count)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(Millisecond, func() { n++ })
	e.Schedule(2*Millisecond, func() { n++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if n != 1 {
		t.Fatalf("n = %d after one step, want 1", n)
	}
	if !e.Step() {
		t.Fatal("Step returned false with one pending event")
	}
	if e.Step() {
		t.Fatal("Step returned true with empty queue")
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-Millisecond, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if e.Now() != 0 {
		t.Errorf("clock = %v, want 0", e.Now())
	}
}

// Property: for any set of delays, events fire in non-decreasing time
// order and the engine processes exactly len(delays) events.
func TestEngineHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fireTimes []Time
		for _, d := range delays {
			e.Schedule(Time(d)*Microsecond, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		return e.Processed() == uint64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTransmissionTime(t *testing.T) {
	tests := []struct {
		bytes int
		rate  int64
		want  Time
	}{
		{1500, 100_000_000, 120 * Microsecond}, // 1500B @ 100Mb/s
		{1500, 1_000_000_000, 12 * Microsecond},
		{0, 100_000_000, 0},
		{1, 1_000_000_000, 8},        // 8ns
		{1460, 10_000_000, 1168_000}, // 1460B @ 10Mb/s = 1.168ms
		{1000, 0, 0},                 // degenerate rate
		{1, 3, 2_666_666_667},        // rounds up
	}
	for _, tc := range tests {
		if got := TransmissionTime(tc.bytes, tc.rate); got != tc.want {
			t.Errorf("TransmissionTime(%d, %d) = %d, want %d", tc.bytes, tc.rate, got, tc.want)
		}
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000000s"},
		{-1500, "-1.500us"},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tc.in), got, tc.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
}

// TestAtArgKeyedOrdering pins the keyed tie-break: same-time keyed
// events fire after all same-time sequence-ordered events and among
// themselves in key order, regardless of insertion order.
func TestAtArgKeyedOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }
	const at = 3 * Millisecond
	top := uint64(1) << 63
	// Insert in an order hostile to the desired firing order: high key
	// first, locals interleaved.
	e.AtArgKeyed(at, rec, 12, top|7)
	e.AtArg(at, rec, 1)
	e.AtArgKeyed(at, rec, 11, top|2)
	e.AtArg(at, rec, 2)
	e.AtArgKeyed(at, rec, 10, top)
	e.AtArg(at, rec, 3)
	e.Run()
	want := []int{1, 2, 3, 10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
}
