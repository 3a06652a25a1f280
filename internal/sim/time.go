// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock with nanosecond resolution, an event queue ordered by
// (time, insertion sequence), restartable timers (the one way to cancel a
// scheduled callback) and a seedable PCG random number generator.
//
// The engine is single-threaded by design. Determinism is a hard
// requirement for the experiments built on top of it: two runs with the
// same seed must produce byte-identical results, so ties between events
// scheduled for the same instant are broken by insertion order.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Duration so that wall
// clock and virtual clock values cannot be mixed by accident.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the time as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// TransmissionTime returns the serialisation delay of sizeBytes bytes on a
// link of rate bitsPerSecond. It rounds up to a whole nanosecond so that a
// non-empty packet never takes zero time on a finite-rate link.
func TransmissionTime(sizeBytes int, bitsPerSecond int64) Time {
	if bitsPerSecond <= 0 {
		return 0
	}
	bits := int64(sizeBytes) * 8
	ns := (bits*int64(Second) + bitsPerSecond - 1) / bitsPerSecond
	return Time(ns)
}
