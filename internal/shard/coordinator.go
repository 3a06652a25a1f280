package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// worker is the hand-off slot of one persistent shard thread; shard 0
// runs on the coordinator. The coordinator stores limit and bumps gen;
// the worker runs its engine to limit and stores gen into done. The
// atomics publish what the control thread wrote at the barrier (fault
// state, FIB flips, dialed endpoints) to the shard thread and back. The
// worker yields but never parks: a window is too short to pay a wake-up.
type worker struct {
	gen, done atomic.Uint64
	quit      atomic.Bool
	limit     sim.Time
	_         [96]byte // two cache lines per worker: no false sharing
}

func (f *Fabric) startWorkers() {
	f.workers = make([]worker, len(f.engines)-1)
	f.workerWG.Add(len(f.workers))
	for i := range f.workers {
		go f.workers[i].run(f.engines[i+1], &f.workerWG)
	}
}

func (w *worker) run(e *sim.Engine, wg *sync.WaitGroup) {
	defer wg.Done()
	for seen := uint64(0); ; runtime.Gosched() {
		if g := w.gen.Load(); g != seen {
			seen = g
			e.RunUntil(w.limit)
			w.done.Store(g)
		} else if w.quit.Load() {
			return
		}
	}
}

// stopWorkers returns once every worker goroutine has exited.
func (f *Fabric) stopWorkers() {
	for i := range f.workers {
		f.workers[i].quit.Store(true)
	}
	f.workerWG.Wait()
	f.workers = nil
}

// advanceShards raises every shard clock to t (the barrier time), so
// control-plane callbacks running at the barrier observe the barrier
// instant on whichever shard engine they consult, and events they
// schedule relative to a shard's now land in that shard's future.
// AdvanceTo is monotone: a clock already at t stays put.
func (f *Fabric) advanceShards(t sim.Time) {
	for _, e := range f.engines {
		e.AdvanceTo(t)
	}
}

// Run executes the fabric to the virtual-time horizon until (the run's
// MaxSimTime) or a Stop request. It returns whether the run was stopped
// (vs drained or timed out) and the virtual time it ended at — the
// stopping callback's own firing time when stopped, until otherwise
// (matching sim.Engine.RunUntil's clock semantics). On a direct fabric
// this is exactly control.RunUntil.
//
// Stop granularity: a Stop issued by a deferred completion takes effect
// at the barrier that replays the completion. The window that produced
// it has already run to its edge, so shard engines may process events
// up to one window (one lookahead) past the stop time — events the
// sequential simulator never reaches. The overrun is deterministic
// (windows depend only on heap state, never on thread timing), and the
// returned stop time is exact; only cumulative counters (per-link stats,
// processed-event totals) include the overrun. This is the documented
// N-shard divergence from the sequential oracle — see the package
// comment.
func (f *Fabric) Run(until sim.Time) (stopped bool, elapsed sim.Time) {
	if f.direct {
		f.control.RunUntil(until)
		return f.stopped, f.control.Now()
	}
	f.startWorkers()
	defer f.stopWorkers()

	for {
		// Barrier: commit cross-shard deliveries, then replay deferred
		// completions in (time, shard) order. A completion may Stop the
		// run — that ends it at the completion's own firing time.
		f.stats.Barriers++
		f.flushOutboxes()
		f.flushDeferred()
		if f.stopped {
			return true, f.stopTime
		}

		c := f.control.PeekTime()
		s := sim.MaxTime
		for _, e := range f.engines {
			if t := e.PeekTime(); t < s {
				s = t
			}
		}
		if c > until && s > until {
			// Horizon reached (or fully drained): leave every clock at
			// the horizon, as RunUntil would.
			f.advanceShards(until)
			f.control.RunUntil(until)
			return false, until
		}
		if c <= s {
			// Control-plane turn. Shard clocks advance to the barrier
			// first so the control events (faults flipping link state,
			// the spawner dialing onto shard engines, snapshots reading
			// shard-owned counters) observe and schedule against the
			// barrier instant.
			f.stats.ControlTurns++
			f.advanceShards(c)
			f.control.RunUntil(c)
			continue
		}
		// Parallel window: every shard executes events strictly below
		// the edge. The conservative edge s + lookahead is always safe (a
		// cross-shard send at t >= s arrives at t + prop >= s +
		// lookahead; degradations only add delay on top of the as-built
		// propagation the lookahead was computed from, so the bound
		// survives faults).
		edge := s + f.lookahead
		if edge > c {
			edge = c
		}
		if edge > until+1 {
			edge = until + 1
		}
		f.runWindow(s, edge)
	}
}

// runWindow hands every shard with work strictly below edge its window,
// runs shard 0 inline and waits for the rest — the barrier. Shards whose
// next event is at or past the edge are elided: no hand-off, no clock
// raise; their clocks catch up at the next barrier they take part in. s
// is the window start (the earliest pending shard event), for stats.
func (f *Fabric) runWindow(s, edge sim.Time) {
	n := 0
	for i := range f.workers {
		if w := &f.workers[i]; f.engines[i+1].PeekTime() < edge {
			n++
			w.limit = edge - 1
			w.gen.Add(1)
		}
	}
	if e := f.engines[0]; e.PeekTime() < edge {
		n++
		e.RunUntil(edge - 1)
	}
	for i := range f.workers {
		for w := &f.workers[i]; w.done.Load() != w.gen.Load(); {
			runtime.Gosched()
		}
	}
	f.stats.Windows++
	f.stats.ElidedWakeups += uint64(len(f.engines) - n)
	f.windowNsSum += edge - s
}
