// Package faults is the network-dynamics subsystem: it mutates a built
// topology while the event engine runs. A Schedule holds timed events —
// link down/up, whole-switch crash/restart, capacity reduction,
// random-loss injection — built either explicitly (FailCables,
// FailSwitches and friends) or sampled from a seeded per-cable MTBF/MTTR
// failure model, and an Injector replays them against the network on the
// simulation clock.
//
// The piece that makes failures interesting for the paper's transports
// is the reconvergence delay: when a link dies, its switch keeps
// spraying packets onto it (they blackhole, with accounting in
// netem.LinkStats) until routing notices, ReconvergeDelay later, and
// ECMP sets shrink around the corpse. Single-path TCP flows hashed onto
// the dead path stall for the whole window; MMPTCP's packet scatter
// loses a slice of every window but keeps the rest flowing — exactly
// the robustness claim the paper makes.
//
// Everything is deterministic: events fire at fixed virtual times, model
// sampling and loss draws come from sim.RNG streams derived from the
// run's seed, so identical seeds and schedules yield byte-identical
// results at any sweep worker count.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/netem"
	"repro/internal/sim"
)

// Kind is the type of a scheduled network mutation.
type Kind uint8

// Fault event kinds.
const (
	// LinkDown fails the target links at the data plane: queued and
	// in-flight packets blackhole, as do new arrivals, and after the
	// schedule's ReconvergeDelay routing excludes the links from ECMP.
	LinkDown Kind = iota
	// LinkUp repairs the target links; routing re-includes them after
	// the reconvergence delay. Down/up pairs are refcounted per link, so
	// overlapping outages from different sources (an explicit schedule
	// plus a sampled model) union: a link is up only once every failure
	// that hit it has been repaired.
	LinkUp
	// Degrade applies capacity reduction and/or random loss to the target
	// links (whichever fields are set).
	Degrade
	// Restore resets the target links to their built rate and zero
	// injected loss.
	Restore
	// SwitchDown crashes a whole switch: every incident link (both
	// directions of every port) fails at once and the switch itself stops
	// forwarding. For switch events Index is the switch ordinal in the
	// network's builder order (Index -1 crashes every switch) and Layer
	// is ignored.
	SwitchDown
	// SwitchUp restarts a crashed switch: its ports come back up and
	// routing re-admits them after the reconvergence delay. Crash/restart
	// pairs are refcounted like link outages, so overlapping crashes from
	// different sources union.
	SwitchUp
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "down"
	case LinkUp:
		return "up"
	case Degrade:
		return "degrade"
	case Restore:
		return "restore"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one timed network mutation. Link-targeted events are
// addressed by topology layer plus the index of the unidirectional link
// within that layer, in builder order (netem links come in direction
// pairs: cable i at a layer is links 2i and 2i+1 — see FailCables);
// Index -1 targets every link at the layer. Switch-targeted events
// (SwitchDown/SwitchUp) address Index as the switch ordinal in builder
// order and ignore Layer.
type Event struct {
	At    sim.Time
	Kind  Kind
	Layer netem.Layer
	Index int

	// Degrade parameters; zero values leave the corresponding property
	// untouched.
	CapacityFactor float64 // scale link rate to this factor, in (0, 1]
	LossRate       float64 // drop each enqueued packet with this probability, in [0, 1)
}

// LayerModel gives one layer's failure statistics for sampled schedules:
// each cable at the layer alternates exponentially distributed up
// intervals (mean MTBF) and down intervals (mean MTTR). Both directions
// of a cable fail and recover together.
type LayerModel struct {
	Layer netem.Layer
	MTBF  sim.Time // mean time between failures per cable; must be positive
	MTTR  sim.Time // mean time to repair; must be positive
}

// Model samples a failure schedule instead of (or in addition to) an
// explicit event list. The zero value samples nothing.
type Model struct {
	// Layers samples each cable independently.
	Layers []LayerModel
	// Horizon bounds sampling; 0 means the run's MaxSimTime.
	Horizon sim.Time
}

// active reports whether the model samples anything.
func (m Model) active() bool {
	return len(m.Layers) > 0
}

// Sample draws the model's down/up events over [0, horizon) using rng.
// cablesAt reports how many cables (full-duplex link pairs) exist at a
// layer. Each cable gets its own RNG stream split off rng in a fixed
// order, so the draw is independent of everything else in the run.
func (m Model) Sample(rng *sim.RNG, cablesAt func(netem.Layer) int, horizon sim.Time) ([]Event, error) {
	if m.Horizon > 0 {
		horizon = m.Horizon
	}
	var out []Event
	for _, lm := range m.Layers {
		if lm.MTBF <= 0 || lm.MTTR <= 0 {
			return nil, fmt.Errorf("faults: layer %v model needs positive MTBF and MTTR", lm.Layer)
		}
		cables := cablesAt(lm.Layer)
		if cables == 0 {
			return nil, fmt.Errorf("faults: no links at layer %v to sample failures on", lm.Layer)
		}
		for c := 0; c < cables; c++ {
			r := rng.Split()
			alternate(r, lm.MTBF, lm.MTTR, horizon, func(kind Kind, t sim.Time) {
				out = append(out, cableEvents(kind, t, lm.Layer, c)...)
			})
		}
	}
	return out, nil
}

// alternate walks one exponential up/down renewal process over
// [0, horizon), emitting LinkDown at each failure and LinkUp at each
// repair.
func alternate(r *sim.RNG, mtbf, mttr, horizon sim.Time, emit func(kind Kind, t sim.Time)) {
	t := sim.Time(0)
	for {
		t += sim.Time(float64(mtbf) * r.ExpFloat64())
		if t >= horizon {
			return
		}
		emit(LinkDown, t)
		t += sim.Time(float64(mttr) * r.ExpFloat64())
		if t >= horizon {
			return
		}
		emit(LinkUp, t)
	}
}

// cableEvents returns kind events for both directions of cable c.
func cableEvents(kind Kind, at sim.Time, layer netem.Layer, c int) []Event {
	return []Event{
		{At: at, Kind: kind, Layer: layer, Index: 2 * c},
		{At: at, Kind: kind, Layer: layer, Index: 2*c + 1},
	}
}

// FailCables returns LinkDown events for both directions of the first n
// cables at layer, firing at `at`, plus matching LinkUp events at upAt
// when upAt > 0 (upAt == 0 means the cables stay dead). Topology
// builders wire each full-duplex cable as two consecutive unidirectional
// links, so cable i is layer links 2i and 2i+1.
func FailCables(layer netem.Layer, n int, at, upAt sim.Time) []Event {
	var out []Event
	for c := 0; c < n; c++ {
		out = append(out, cableEvents(LinkDown, at, layer, c)...)
		if upAt > 0 {
			out = append(out, cableEvents(LinkUp, upAt, layer, c)...)
		}
	}
	return out
}

// FailSwitches returns SwitchDown crash events for the given switch
// ordinals (builder order — see topology.Network.Switches) firing at
// `at`, plus matching SwitchUp restart events at upAt when upAt > 0
// (upAt == 0 means the switches stay dead). A crash fails every link
// incident to the switch at once; routing excludes the ports after the
// reconvergence delay, exactly as for cable cuts.
func FailSwitches(switches []int, at, upAt sim.Time) []Event {
	var out []Event
	for _, s := range switches {
		out = append(out, Event{At: at, Kind: SwitchDown, Index: s})
		if upAt > 0 {
			out = append(out, Event{At: upAt, Kind: SwitchUp, Index: s})
		}
	}
	return out
}

// DegradeCables returns Degrade events for both directions of the first
// n cables at layer, applying the given capacity factor and loss rate at
// `at`, plus Restore events at restoreAt when restoreAt > 0.
func DegradeCables(layer netem.Layer, n int, at, restoreAt sim.Time, capacityFactor, lossRate float64) []Event {
	var out []Event
	for c := 0; c < n; c++ {
		for _, ev := range cableEvents(Degrade, at, layer, c) {
			ev.CapacityFactor = capacityFactor
			ev.LossRate = lossRate
			out = append(out, ev)
		}
		if restoreAt > 0 {
			out = append(out, cableEvents(Restore, restoreAt, layer, c)...)
		}
	}
	return out
}

// Config is the public description of a run's network dynamics: an
// explicit event list, an optional sampled failure model, and the
// routing reconvergence delay. The zero value leaves the network
// permanently healthy. Config is plain data — experiment sweeps copy it
// by value unchanged, and the same Config plus the same seed reproduces
// the same dynamics exactly.
type Config struct {
	// Events fire at their timestamps, in timestamp order (ties in
	// listed order).
	Events []Event
	// Model, when it has layers, is sampled into additional events using
	// an RNG stream derived from the run's seed.
	Model Model
	// ReconvergeDelay is how long routing takes to notice a link state
	// change: after a failure, switches keep forwarding onto the dead
	// link (blackholing) for this long before ECMP excludes it, and
	// after a repair the link stays excluded for this long before ECMP
	// re-admits it. Zero means instant reconvergence (no blackhole
	// window beyond in-flight packets).
	ReconvergeDelay sim.Time
}

// Active reports whether the config mutates the network at all.
func (c Config) Active() bool {
	return len(c.Events) > 0 || c.Model.active()
}

// validate checks event parameters against the per-layer link counts and
// the network's switch count.
func validate(events []Event, linksAt func(netem.Layer) int, switches int) error {
	for i, ev := range events {
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d has negative time %v", i, ev.At)
		}
		if ev.Kind == SwitchDown || ev.Kind == SwitchUp {
			if switches == 0 {
				return fmt.Errorf("faults: event %d targets a switch but the network has none", i)
			}
			if ev.Index < -1 || ev.Index >= switches {
				return fmt.Errorf("faults: event %d switch ordinal %d out of range (%d switches)", i, ev.Index, switches)
			}
			continue
		}
		n := linksAt(ev.Layer)
		if n == 0 {
			return fmt.Errorf("faults: event %d targets layer %v with no links", i, ev.Layer)
		}
		if ev.Index < -1 || ev.Index >= n {
			return fmt.Errorf("faults: event %d link index %d out of range for layer %v (%d links)", i, ev.Index, ev.Layer, n)
		}
		switch ev.Kind {
		case LinkDown, LinkUp, Restore:
		case Degrade:
			// Written so that a NaN fails each range check.
			if ev.CapacityFactor != 0 && !(ev.CapacityFactor > 0 && ev.CapacityFactor <= 1) {
				return fmt.Errorf("faults: event %d capacity factor %v out of (0, 1]", i, ev.CapacityFactor)
			}
			if !(ev.LossRate >= 0 && ev.LossRate < 1) {
				return fmt.Errorf("faults: event %d loss rate %v out of [0, 1)", i, ev.LossRate)
			}
			if ev.CapacityFactor == 0 && ev.LossRate == 0 {
				return fmt.Errorf("faults: event %d degrades nothing", i)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// sortEvents orders events by timestamp, preserving listed order for
// ties, so injection is deterministic however the schedule was composed.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
}
