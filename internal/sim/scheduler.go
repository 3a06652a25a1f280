package sim

// EventScheduler is the scheduling surface the protocol stacks program
// against: the one sequential *Engine, or the engine of the shard that
// owns the node on a partitioned fabric.
//
// The contract matches Engine exactly: Schedule/ScheduleArg are relative
// to Now, At/AtArg are absolute and panic on times in the past, and
// simultaneous events fire in scheduling order.
type EventScheduler interface {
	Now() Time
	Schedule(delay Time, fn func()) *Event
	ScheduleArg(delay Time, fn func(any), arg any) *Event
	At(t Time, fn func()) *Event
	AtArg(t Time, fn func(any), arg any) *Event
}

var _ EventScheduler = (*Engine)(nil)
