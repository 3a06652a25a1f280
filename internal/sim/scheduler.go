package sim

// EventScheduler is the scheduling surface the protocol stacks and the
// network emulation program against. The sequential *Engine implements it
// directly; the sharded engine substitutes thin shims (per-shard engine
// views, cross-shard outboxes) so the same transport and link code runs
// unchanged whether a node lives on the one sequential engine or on one
// shard of a partitioned fabric.
//
// The contract matches Engine exactly: Schedule/ScheduleArg are relative
// to Now, At/AtArg are absolute and panic on times in the past, and
// simultaneous events fire in scheduling order. Implementations that
// cross a shard boundary may return a nil *Event — callers that need to
// cancel must therefore tolerate nil handles (Event.Cancel already does).
// AtArgClass is AtArg with an explicit horizon class (see
// Engine.SetHorizonClasses) — the hook netem links use to re-tag a
// packet's delivery with the receiving node's boundary distance.
// Implementations without class tracking treat it as AtArg.
type EventScheduler interface {
	Now() Time
	Schedule(delay Time, fn func()) *Event
	ScheduleArg(delay Time, fn func(any), arg any) *Event
	At(t Time, fn func()) *Event
	AtArg(t Time, fn func(any), arg any) *Event
	AtArgClass(t Time, fn func(any), arg any, class uint8) *Event
}

var _ EventScheduler = (*Engine)(nil)
