package sim

import "testing"

func TestTimerFires(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(5 * Millisecond)
	if !tm.Active() {
		t.Fatal("timer inactive after Reset")
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Active() {
		t.Fatal("timer active after firing")
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	e := NewEngine()
	var at Time
	tm := NewTimer(e, func() { at = e.Now() })
	tm.Reset(5 * Millisecond)
	tm.Reset(10 * Millisecond) // supersedes the first schedule
	e.Run()
	if at != 10*Millisecond {
		t.Errorf("timer fired at %v, want 10ms", at)
	}
	if e.Processed() != 0 {
		// The superseded event was cancelled, so only timer internals
		// fired; processed counts only executed callbacks.
		t.Logf("processed = %d", e.Processed())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := NewTimer(e, func() { fired = true })
	tm.Reset(Millisecond)
	tm.Stop()
	if tm.Active() {
		t.Fatal("timer active after Stop")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerRearmsFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tm *Timer
	tm = NewTimer(e, func() {
		count++
		if count < 3 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond)
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if e.Now() != 3*Millisecond {
		t.Errorf("clock = %v, want 3ms", e.Now())
	}
}

func TestTimerStopIdempotent(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	tm.Stop()
	tm.Stop()
	tm.Reset(Millisecond)
	tm.Stop()
	tm.Stop()
	e.Run()
	if e.Processed() != 0 {
		t.Errorf("processed = %d, want 0", e.Processed())
	}
}
