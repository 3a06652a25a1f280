package faults

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Target is the injectable view of a built network: every unidirectional
// link and every switch, in builder order. topology.Network exposes
// exactly these slices; keeping the coupling to two fields lets the
// injector drive hand-built networks in tests too.
type Target struct {
	Links    []*netem.Link
	Switches []*netem.Switch
}

// Injector owns a resolved, scheduled fault plan for one run. Install
// builds it from a Config and the network's links, registers every
// mutation on the engine, and the plan then replays itself as the clock
// advances — the run needs no further involvement.
type Injector struct {
	eng        *sim.Engine
	reconverge sim.Time

	// Events is the resolved schedule (explicit plus sampled), in firing
	// order, for reporting and debugging.
	Events []Event

	// OnRouteChange, when set, fires after every routing-visible link
	// transition (a link becoming route-dead or route-live, i.e. after
	// the reconvergence delay), with the transitioned link — its new
	// state already applied. The global routing control plane hooks
	// this to trigger a coalesced, transition-scoped table recompute;
	// the default local behaviour needs no notification because the
	// switches' rows filter route-dead links on every lookup.
	OnRouteChange func(*netem.Link)

	// Overlap counters. A link can be failed by several sources at once
	// (an explicit schedule plus a sampled model); outages must union,
	// not last-event-wins, or an early repair from one source would
	// silently cut short another source's outage. dataDown drives
	// Link.SetDown, routeDown drives Link.SetRouteDead (reconvergence
	// delayed); each link changes state only on 0<->1 transitions.
	dataDown  map[*netem.Link]int
	routeDown map[*netem.Link]int
	// switchDown refcounts crash sources per switch ordinal.
	switchDown map[int]int

	// switches and switchPorts resolve switch ordinals to the switch and
	// its incident links (both directions of every port).
	switches    []*netem.Switch
	switchPorts map[int][]*netem.Link

	// rec, when non-nil, receives structured trace events for every
	// applied fault mutation; nil-guarded at each trace point.
	rec *trace.Recorder
}

// SetRecorder installs (or, with nil, removes) the structured event
// recorder. The run harness calls this right after Install.
func (inj *Injector) SetRecorder(r *trace.Recorder) { inj.rec = r }

// failLink registers one more failure source on l, taking the link down
// on the first.
func (inj *Injector) failLink(l *netem.Link) {
	inj.dataDown[l]++
	if inj.dataDown[l] == 1 {
		l.SetDown(true)
	}
}

// repairLink removes one failure source from l, bringing the link up
// when the last is gone. Unmatched repairs (a LinkUp with no prior
// LinkDown) are no-ops.
func (inj *Injector) repairLink(l *netem.Link) {
	if inj.dataDown[l] == 0 {
		return
	}
	inj.dataDown[l]--
	if inj.dataDown[l] == 0 {
		l.SetDown(false)
	}
}

// deadenRoute / reviveRoute are the routing-plane twins of
// failLink/repairLink, invoked reconvergence-delayed.
func (inj *Injector) deadenRoute(l *netem.Link) {
	inj.routeDown[l]++
	if inj.routeDown[l] == 1 {
		l.SetRouteDead(true)
		if inj.OnRouteChange != nil {
			inj.OnRouteChange(l)
		}
	}
}

func (inj *Injector) reviveRoute(l *netem.Link) {
	if inj.routeDown[l] == 0 {
		return
	}
	inj.routeDown[l]--
	if inj.routeDown[l] == 0 {
		l.SetRouteDead(false)
		if inj.OnRouteChange != nil {
			inj.OnRouteChange(l)
		}
	}
}

// crashSwitch registers one more crash source on switch ordinal s,
// taking the switch (and all its ports) down on the first.
func (inj *Injector) crashSwitch(s int) {
	inj.switchDown[s]++
	if inj.switchDown[s] > 1 {
		return
	}
	inj.switches[s].SetDown(true)
	for _, l := range inj.switchPorts[s] {
		inj.failLink(l)
		inj.scheduleRouteChange(l, true)
	}
}

// restartSwitch removes one crash source from switch ordinal s, bringing
// it back up when the last is gone. Unmatched restarts are no-ops.
func (inj *Injector) restartSwitch(s int) {
	if inj.switchDown[s] == 0 {
		return
	}
	inj.switchDown[s]--
	if inj.switchDown[s] > 0 {
		return
	}
	inj.switches[s].SetDown(false)
	for _, l := range inj.switchPorts[s] {
		inj.repairLink(l)
		inj.scheduleRouteChange(l, false)
	}
}

// scheduleRouteChange applies the routing-plane side of a link state
// change after the reconvergence delay (immediately when the delay is
// zero).
func (inj *Injector) scheduleRouteChange(l *netem.Link, dead bool) {
	fn := inj.reviveRoute
	if dead {
		fn = inj.deadenRoute
	}
	if inj.reconverge > 0 {
		inj.eng.Schedule(inj.reconverge, func() { fn(l) })
		return
	}
	fn(l)
}

// Install resolves cfg against the target network (links grouped by
// their layer, switches by ordinal — builders order both
// deterministically), samples the model if present using rng, validates
// everything, and schedules the mutations on eng. horizon bounds model
// sampling (typically the run's MaxSimTime). rng is only consumed when
// the config needs randomness (model sampling, loss injection), always
// in a fixed order.
func Install(eng *sim.Engine, target Target, cfg Config, rng *sim.RNG, horizon sim.Time) (*Injector, error) {
	if cfg.ReconvergeDelay < 0 {
		// A negative delay would schedule the routing-plane transition
		// before the data-plane event that caused it; reject it loudly
		// instead of letting the engine clamp it somewhere surprising.
		return nil, fmt.Errorf("faults: negative ReconvergeDelay %v", cfg.ReconvergeDelay)
	}
	byLayer := make(map[netem.Layer][]*netem.Link)
	for _, l := range target.Links {
		byLayer[l.Layer()] = append(byLayer[l.Layer()], l)
	}
	linksAt := func(layer netem.Layer) int { return len(byLayer[layer]) }

	events := append([]Event(nil), cfg.Events...)
	if cfg.Model.active() {
		sampled, err := cfg.Model.Sample(rng.Split(), func(layer netem.Layer) int {
			return len(byLayer[layer]) / 2
		}, horizon)
		if err != nil {
			return nil, err
		}
		events = append(events, sampled...)
	}
	if err := validate(events, linksAt, len(target.Switches)); err != nil {
		return nil, err
	}
	sortEvents(events)

	inj := &Injector{
		eng:        eng,
		reconverge: cfg.ReconvergeDelay,
		Events:     events,
		dataDown:   make(map[*netem.Link]int),
		routeDown:  make(map[*netem.Link]int),
		switchDown: make(map[int]int),
		switches:   target.Switches,
	}

	// Resolve switch ordinals to incident links once, and only if any
	// event needs it.
	needPorts := false
	for _, ev := range events {
		if ev.Kind == SwitchDown || ev.Kind == SwitchUp {
			needPorts = true
			break
		}
	}
	if needPorts {
		ordOf := make(map[netem.NodeID]int, len(target.Switches))
		for i, sw := range target.Switches {
			ordOf[sw.ID()] = i
		}
		inj.switchPorts = make(map[int][]*netem.Link)
		for _, l := range target.Links {
			if s, ok := ordOf[l.Src().ID()]; ok {
				inj.switchPorts[s] = append(inj.switchPorts[s], l)
			}
			if s, ok := ordOf[l.Dst().ID()]; ok {
				inj.switchPorts[s] = append(inj.switchPorts[s], l)
			}
		}
	}

	for _, ev := range events {
		ev := ev
		var targets []*netem.Link
		var switchOrds []int
		switch ev.Kind {
		case SwitchDown, SwitchUp:
			if ev.Index >= 0 {
				switchOrds = []int{ev.Index}
			} else {
				switchOrds = make([]int, len(target.Switches))
				for i := range switchOrds {
					switchOrds[i] = i
				}
			}
		default:
			targets = byLayer[ev.Layer]
			if ev.Index >= 0 {
				targets = targets[ev.Index : ev.Index+1]
			}
		}
		// Loss injection needs an RNG per event; split it now so RNG
		// consumption is fixed at install time regardless of when (or
		// whether) the event fires before the run ends.
		var lossRNG *sim.RNG
		if ev.Kind == Degrade && ev.LossRate > 0 {
			lossRNG = rng.Split()
		}
		targets2, ords2 := targets, switchOrds
		eng.At(ev.At, func() { inj.apply(ev, targets2, ords2, lossRNG) })
	}
	return inj, nil
}

// apply executes one event against its resolved target links or switch
// ordinals.
func (inj *Injector) apply(ev Event, targets []*netem.Link, switchOrds []int, lossRNG *sim.RNG) {
	// Repairs (up/restore) trace as fault-repair, everything else as
	// fault-inject, with the fault kind in the payload.
	traceKind := trace.KindFaultInject
	switch ev.Kind {
	case LinkUp, Restore, SwitchUp:
		traceKind = trace.KindFaultRepair
	}
	for _, s := range switchOrds {
		if inj.rec != nil {
			inj.rec.Record(inj.eng.Now(), traceKind, 0, -1,
				int32(inj.switches[s].ID()), -1, int64(ev.Kind), 0)
		}
		switch ev.Kind {
		case SwitchDown:
			inj.crashSwitch(s)
		case SwitchUp:
			inj.restartSwitch(s)
		}
	}
	for _, l := range targets {
		l := l
		if inj.rec != nil {
			inj.rec.Record(inj.eng.Now(), traceKind, 0, -1,
				int32(l.Src().ID()), int32(l.Dst().ID()), int64(ev.Kind), 0)
		}
		switch ev.Kind {
		case LinkDown:
			inj.failLink(l)
			// The blackhole window: data keeps dying on the link until
			// routing notices, reconverge later.
			inj.scheduleRouteChange(l, true)
		case LinkUp:
			inj.repairLink(l)
			// Repair is symmetric: the link carries traffic the instant
			// it is up, but ECMP only re-admits it after reconvergence.
			inj.scheduleRouteChange(l, false)
		case Degrade:
			if ev.CapacityFactor != 0 {
				l.SetRateFactor(ev.CapacityFactor)
			}
			if ev.LossRate != 0 {
				l.SetLossRate(ev.LossRate, lossRNG)
			}
		case Restore:
			l.SetRateFactor(1)
			l.SetLossRate(0, nil)
		}
	}
}
