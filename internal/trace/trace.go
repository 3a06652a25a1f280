// Package trace is the simulator's observability layer. Sampler records
// time series from a running simulation — congestion windows, RTT
// estimates, queue occupancies — by polling caller-provided probes at a
// fixed virtual-time interval. Recorder is the structured event trace:
// a typed flight recorder for transport, network-emulation, routing and
// fault events with zero overhead when disabled. Both exist for
// debugging protocol dynamics; the experiment harness records through
// them but never depends on their output. Tracing runs on the sequential
// engine: one run records into one Recorder on one thread, and the
// public Config rejects a traced run on more than one shard.
//
// All panics in this package carry the "trace:" prefix.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Series is one probe's samples.
type Series struct {
	Name   string
	Times  []sim.Time
	Values []float64
}

// Sampler polls probes on a fixed virtual-time interval. Create with
// NewSampler, register probes with Add, then Start. The sampler
// self-schedules; it stops after maxSamples rounds or at Stop, so an
// engine Run bounded by RunUntil is unaffected by pending samples.
type Sampler struct {
	eng      *sim.Engine
	interval sim.Time

	probes  []func() float64
	series  []*Series
	rounds  int
	stopped bool
	started bool
}

// NewSampler creates a sampler with the given sampling interval.
func NewSampler(eng *sim.Engine, interval sim.Time) *Sampler {
	if interval <= 0 {
		panic("trace: sampling interval must be positive")
	}
	return &Sampler{eng: eng, interval: interval}
}

// maxSamples bounds a sampler's rounds.
const maxSamples = 100_000

// Add registers a probe. All probes are sampled at the same instants.
// Add panics after Start: the series would have misaligned lengths.
func (s *Sampler) Add(name string, probe func() float64) *Series {
	if s.started {
		panic("trace: Add after Start")
	}
	ser := &Series{Name: name}
	s.series = append(s.series, ser)
	s.probes = append(s.probes, probe)
	return ser
}

// Start begins sampling (the first round fires one interval from now).
func (s *Sampler) Start() {
	if s.started {
		return
	}
	s.started = true
	s.eng.Schedule(s.interval, s.tick)
}

// Stop ends sampling after the current round.
func (s *Sampler) Stop() { s.stopped = true }

func (s *Sampler) tick() {
	if s.stopped || s.rounds >= maxSamples {
		return
	}
	s.rounds++
	now := s.eng.Now()
	for i, probe := range s.probes {
		s.series[i].Times = append(s.series[i].Times, now)
		s.series[i].Values = append(s.series[i].Values, probe())
	}
	s.eng.Schedule(s.interval, s.tick)
}

// WriteCSV emits all series as one CSV table: time_ms, then one column
// per series.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprint(w, "time_ms"); err != nil {
		return err
	}
	for _, ser := range s.series {
		if _, err := fmt.Fprintf(w, ",%s", ser.Name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if len(s.series) == 0 {
		return nil
	}
	for i := range s.series[0].Times {
		if _, err := fmt.Fprintf(w, "%.3f", s.series[0].Times[i].Milliseconds()); err != nil {
			return err
		}
		for _, ser := range s.series {
			if _, err := fmt.Fprintf(w, ",%g", ser.Values[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
