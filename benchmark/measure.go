package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	mmptcp "repro"
)

// outcome is what one unit of work — one mmptcp.Run or one mmptcp.RunSweep
// call — cost and produced.
type outcome struct {
	began   time.Time
	wallS   float64 // raw host seconds inside the call
	simS    float64 // Results.Elapsed, summed over replicates
	events  uint64  // Results.Events, summed over replicates
	mallocs uint64
	bytes   uint64

	attempted int // runs (replicates in a sweep)
	workers   int // simulations in flight at once
	failed    int
	reasons   []string

	results     []*mmptcp.Results
	fingerprint string
	// doneAt is, for a sweep, the host time since the call began at which
	// each replicate finished, in completion order.
	doneAt []time.Duration
}

// call executes the workload's one public call and times it. mutate, if
// set, edits each Config first (the ring-mode re-run uses it). With mem set the heap is collected before the call and the
// allocation counters are read around it; the profiled repetitions leave
// that out so that a forced collection does not show up as the
// simulator's GC share.
func (w *workload) call(seed uint64, scale float64, mutate func(*mmptcp.Config), mem bool) outcome {
	var o outcome
	var m0, m1 runtime.MemStats
	var err error
	if w.sweep != nil {
		configs, opts := w.sweep(seed, scale)
		if mutate != nil {
			for i := range configs {
				mutate(&configs[i])
			}
		}
		o.doneAt = make([]time.Duration, 0, len(configs))
		opts.OnResult = func(done, total, index int) { o.doneAt = append(o.doneAt, time.Since(o.began)) }
		o.attempted, o.workers = len(configs), opts.Workers
		if mem {
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		o.began = time.Now()
		o.results, err = mmptcp.RunSweep(configs, opts)
		o.wallS = time.Since(o.began).Seconds()
	} else {
		cfg := w.config(seed, scale)
		if mutate != nil {
			mutate(&cfg)
		}
		o.attempted, o.workers = 1, 1
		if mem {
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		o.began = time.Now()
		var res *mmptcp.Results
		res, err = mmptcp.Run(cfg)
		o.wallS = time.Since(o.began).Seconds()
		o.results = []*mmptcp.Results{res}
	}
	if mem {
		runtime.ReadMemStats(&m1)
		o.mallocs = m1.Mallocs - m0.Mallocs
		o.bytes = m1.TotalAlloc - m0.TotalAlloc
	}
	if err != nil {
		o.results = nil
		o.failed = o.attempted
		o.reasons = append(o.reasons, err.Error())
	}
	return o
}

// collect checks what the call returned and fingerprints it.
func (w *workload) collect(o *outcome) {
	for i, r := range o.results {
		o.simS += r.Elapsed.Seconds()
		o.events += r.Events
		if why := w.check(r); why != "" {
			o.failed++
			if len(o.reasons) < 5 {
				o.reasons = append(o.reasons, fmt.Sprintf("run %d: %s", i, why))
			}
		}
	}
	if o.results != nil {
		o.fingerprint = fingerprint(o.results)
	}
}

// check says why a finished run is wrong, or "" when it is right.
func (w *workload) check(r *mmptcp.Results) string {
	cfg := r.Config
	if w.mustComplete {
		if r.Spawned != cfg.ShortFlows {
			return fmt.Sprintf("spawned %d of %d short flows", r.Spawned, cfg.ShortFlows)
		}
		if r.ShortSummary.Incomplete > 0 {
			return fmt.Sprintf("%d short flows incomplete on a fault-free run to completion", r.ShortSummary.Incomplete)
		}
	} else {
		// Fixed horizon: the run must reach it, or the simulated interval
		// is not the workload's.
		if r.Elapsed != cfg.MaxSimTime {
			return fmt.Sprintf("ended at %v, not at the %v horizon", r.Elapsed, cfg.MaxSimTime)
		}
		if r.Spawned == 0 {
			return "spawned no short flow"
		}
	}
	if len(r.ShortFlows) != r.Spawned {
		return fmt.Sprintf("%d flow records for %d spawned flows", len(r.ShortFlows), r.Spawned)
	}
	for _, f := range r.ShortFlows {
		if f.Completed && f.Delivered != f.Size {
			return fmt.Sprintf("flow %d completed with %d of %d bytes", f.ID, f.Delivered, f.Size)
		}
	}
	return ""
}

// firstConfig is the workload's Config, or its first replicate's.
func (w *workload) firstConfig(seed uint64, scale float64) mmptcp.Config {
	if w.sweep == nil {
		return w.config(seed, scale)
	}
	configs, _ := w.sweep(seed, scale)
	cfg := configs[0]
	cfg.Seed = seed
	return cfg
}

// setupSamples times the set-up probe: n in-process runs after two
// warm-ups (many more when one takes under 20 ms, so that sub-millisecond
// set-ups are not a handful of clock reads), the whole loop bracketed by
// two reference samples — it lasts a second or two, well inside one drift
// period. The collector is off while a probe runs and is run by hand
// between probes: with it on, the median of a hundred 4 ms probes came out
// at 3.4 ms in one process and 5.5 ms in the next, depending on how the
// pacer happened to interleave cycles with a 2 MB-per-probe allocation
// rate. What is left is the mutator's own time, allocation included.
// Returned values are corrected host seconds per probe.
func (w *workload) setupSamples(ref *reference, seed uint64, scale float64, n int) ([]float64, error) {
	// Everything is built and installed, the clock stops after one
	// nanosecond, nothing is spawned.
	cfg := w.firstConfig(seed, scale)
	cfg.MaxSimTime = mmptcp.Nanosecond
	var failure error
	probe := func() float64 {
		t0 := time.Now()
		if _, err := mmptcp.Run(cfg); err != nil {
			failure = fmt.Errorf("set-up probe: %w", err)
		}
		return time.Since(t0).Seconds()
	}
	probe()
	collectEvery := 1
	if one := probe(); one < 0.02 {
		n *= 10
		collectEvery = 10
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]float64, n)
	before := ref.sample()
	for i := range out {
		if i%collectEvery == 0 {
			runtime.GC()
		}
		out[i] = probe()
	}
	after := ref.sample()
	for i := range out {
		out[i] = ref.correct(out[i], before, after)
	}
	return out, failure
}

// timedResult is what a timed (untraced) child measured.
type timedResult struct {
	attempted, failed int
	reasons           []string
	fingerprint       string
	reps              int
	rawWallS          float64 // median uncorrected wall, for the record
	refS              float64 // median reference sample
	metrics           map[string]float64
}

// maxrssMB reads the process's peak resident set.
func maxrssMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureTimed is the timed child: closed loop, one call at a time,
// repeated on identical inputs until seconds have passed (at least twice,
// so that the fingerprint can be seen to repeat), tracing and profiling
// off. Medians over the repetitions are reported.
func (w *workload) measureTimed(seed uint64, scale, seconds float64, setupN int) timedResult {
	ref := newReference(scale)

	var res timedResult
	var wall, raw, kernel, rtf, allocs, mb []float64
	start := time.Now()
	before := ref.sample()
	for rep := 0; rep < 256; rep++ {
		o := w.call(seed, scale, nil, true)
		after := ref.sample()
		w.collect(&o)
		res.attempted += o.attempted
		res.failed += o.failed
		res.reasons = append(res.reasons, o.reasons...)
		if rep == 0 {
			res.fingerprint = o.fingerprint
		} else if o.fingerprint != res.fingerprint {
			// The whole repetition is wrong, whatever its runs looked like.
			res.failed += o.attempted - o.failed
			res.reasons = append(res.reasons, fmt.Sprintf("rep %d fingerprint %s differs from rep 0's %s", rep, o.fingerprint, res.fingerprint))
		}
		c := ref.correct(o.wallS, before, after)
		wall = append(wall, c)
		raw = append(raw, o.wallS)
		kernel = append(kernel, after)
		rtf = append(rtf, o.simS/c)
		allocs = append(allocs, float64(o.mallocs))
		mb = append(mb, float64(o.bytes)/1e6)
		before = after
		res.reps++
		// Stop once another repetition would overrun the budget.
		spent := time.Since(start).Seconds()
		if res.reps >= 2 && spent+spent/float64(res.reps) > seconds {
			break
		}
	}
	rss := maxrssMB()
	setup, err := w.setupSamples(ref, seed, scale, setupN)
	if err != nil {
		res.failed++
		res.attempted++
		res.reasons = append(res.reasons, err.Error())
	}

	res.rawWallS = median(raw)
	res.refS = median(kernel)
	res.metrics = map[string]float64{
		"wall_s":           median(wall),
		"realtime_factor":  median(rtf),
		"setup_s":          median(setup),
		"allocs_per_run":   median(allocs),
		"alloc_mb_per_run": median(mb),
		"peak_rss_mb":      rss,
	}
	return res
}
