// Package workload generates the paper's traffic: a permutation traffic
// matrix over the servers, with one third of the servers running
// long-lived background flows and the rest sending 70 KB short flows
// whose arrivals follow a Poisson process (Figure 1's caption), plus the
// hotspot pattern from the paper's roadmap.
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Assignment maps each host to its role and permutation partner.
type Assignment struct {
	// Partner[i] is the fixed destination of host i (a derangement:
	// Partner[i] != i).
	Partner []int
	// LongSenders and ShortSenders partition the hosts that send.
	LongSenders  []int
	ShortSenders []int
}

// BuildPermutation draws a permutation traffic matrix: a random
// derangement assigns every host a destination, and a random subset of
// longFraction of the hosts is designated to run long background flows;
// the rest send short flows. The paper uses longFraction = 1/3 over 512
// hosts.
func BuildPermutation(rng *sim.RNG, hosts int, longFraction float64) Assignment {
	if hosts < 2 {
		panic(fmt.Sprintf("workload: need at least 2 hosts, got %d", hosts))
	}
	if longFraction < 0 || longFraction > 1 {
		panic(fmt.Sprintf("workload: longFraction %v out of [0,1]", longFraction))
	}
	a := Assignment{Partner: rng.Derangement(hosts)}
	order := rng.Perm(hosts)
	nLong := int(float64(hosts) * longFraction)
	for i, h := range order {
		if i < nLong {
			a.LongSenders = append(a.LongSenders, h)
		} else {
			a.ShortSenders = append(a.ShortSenders, h)
		}
	}
	return a
}

// ApplyHotspot rewrites the partners of the first fraction of short
// senders to point at the hot host (the paper's roadmap "effect of
// hotspots"). Senders equal to the hot host keep their original partner.
func (a *Assignment) ApplyHotspot(fraction float64, host int) {
	n := int(float64(len(a.ShortSenders)) * fraction)
	for i := 0; i < n && i < len(a.ShortSenders); i++ {
		s := a.ShortSenders[i]
		if s != host {
			a.Partner[s] = host
		}
	}
}

// SpawnFunc launches one flow of size bytes from src to dst at the
// current simulation time. id is unique per flow.
type SpawnFunc func(id uint64, src, dst int, size int64)

// PoissonShortFlows schedules short-flow arrivals: each short sender
// independently draws exponential inter-arrival times with the given
// per-sender rate (flows/second), starting after warmup, until total
// flows have been spawned across all senders. The spawned flow always
// targets the sender's permutation partner.
type PoissonShortFlows struct {
	Eng     *sim.Engine
	Assign  *Assignment
	Rate    float64 // per-sender arrivals per second
	Size    int64   // bytes per flow (70 KB in the paper)
	Total   int     // stop after this many flows (0 = no limit)
	Warmup  sim.Time
	Spawn   SpawnFunc
	BaseID  uint64 // first flow ID to assign
	spawned int
	nextID  uint64
	arrive  func(any) // p.arrival, made once; the argument is a *poissonSender
}

// poissonSender is one short sender's arrival process: its host and its
// own stream of exponential gaps.
type poissonSender struct {
	src int
	rng sim.RNG
}

// Start seeds each sender's arrival process. rng provides the
// exponential draws (split per sender for determinism independent of
// event interleaving). The senders sit in one slab and every arrival is
// the same callback with its sender as the event argument, so a run
// pays two allocations here, not three per sender.
func (p *PoissonShortFlows) Start(rng *sim.RNG) {
	if p.Rate <= 0 {
		panic("workload: Poisson rate must be positive")
	}
	if p.Spawn == nil {
		panic("workload: Spawn is required")
	}
	p.nextID = p.BaseID
	senders := make([]poissonSender, len(p.Assign.ShortSenders))
	p.arrive = p.arrival
	for i, src := range p.Assign.ShortSenders {
		s := &senders[i]
		s.src = src
		s.rng.Reseed(rng.Uint64(), rng.Uint64()) // rng.Split(), in place
		first := p.Warmup + sim.FromSeconds(s.rng.ExpFloat64()/p.Rate)
		p.Eng.AtArg(first, p.arrive, s)
	}
}

// arrival spawns a sender's next flow and draws the gap to the one after.
func (p *PoissonShortFlows) arrival(arg any) {
	s := arg.(*poissonSender)
	if p.Total > 0 && p.spawned >= p.Total {
		return
	}
	p.spawned++
	id := p.nextID
	p.nextID++
	p.Spawn(id, s.src, p.Assign.Partner[s.src], p.Size)
	gap := sim.FromSeconds(s.rng.ExpFloat64() / p.Rate)
	p.Eng.ScheduleArg(gap, p.arrive, s)
}

// Spawned returns the number of flows launched so far.
func (p *PoissonShortFlows) Spawned() int { return p.spawned }
