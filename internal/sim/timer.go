package sim

// Timer is a restartable one-shot timer bound to an engine, used by the
// transport stacks for retransmission timeouts. It is the one way to
// cancel a scheduled callback: it can be reset and stopped repeatedly, and
// each Reset supersedes the previous schedule. Re-arming is
// allocation-free: the expiry callback is built once at construction and
// the engine recycles the underlying events.
type Timer struct {
	eng *Engine
	ev  *event // the pending expiry; nil while stopped or once fired
	fn  func()
}

// timerFire is the shared engine callback for all timers; the timer
// itself rides in the event's arg slot. A static function plus an arg is
// what keeps Reset — called per ACK by the retransmit timers — from
// allocating a fresh method-value closure each time.
func timerFire(a any) { a.(*Timer).fire() }

// NewTimer returns a stopped timer that runs fn on expiry.
func NewTimer(eng *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	return &Timer{eng: eng, fn: fn}
}

// Reset (re)schedules the timer to fire after delay, cancelling any
// previously scheduled expiry. A negative delay is treated as zero.
func (t *Timer) Reset(delay Time) {
	t.Stop()
	t.ev = t.eng.at(t.eng.now+max(delay, 0), timerFire, t)
}

// Stop cancels the pending expiry, if any.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.eng.cancel(t.ev)
		t.ev = nil
	}
}

// Active reports whether the timer is scheduled to fire.
func (t *Timer) Active() bool { return t.ev != nil }

func (t *Timer) fire() {
	t.ev = nil
	t.fn()
}
