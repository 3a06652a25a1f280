package main

import "time"

// Host-speed reference.
//
// The box this benchmark was defined on is a two-vCPU guest whose speed
// drifts with its neighbours: the same single-threaded simulation took
// between 0.56 s and 1.01 s over ten minutes, with the drift lasting tens
// of seconds at a time — longer than a run, so repeating inside a run does
// not average it out. A fixed reference kernel timed right before and after
// every measured call tracks that drift; host times are reported multiplied
// by (nominal kernel time) / (kernel time around the call). In one process
// over 150 s (67 calls of paper_k8), medians of eight consecutive raw times
// ranged 0.95 to 1.08 of their median (spread 0.077) and medians of
// corrected times 0.97 to 1.05 (spread 0.029).
//
// The kernel is the benchmark's own code and never changes with the
// simulator: a hold model (pop the earliest, push it back later) on a
// binary heap of pointers, which is what the simulator spends most of its
// time doing and so slows down and speeds up with it. A pure ALU loop and
// a cache-missing pointer chase were tried first and tracked the simulator
// worse (spread of the ratio 0.032 and 0.088 against 0.022).

// refNominalS is the kernel's median time on the defining box. It only
// fixes the unit: corrected seconds are seconds of that box.
const refNominalS = 0.250

const (
	refHeapSize = 20_000
	refOps      = 1_500_000
)

type refEvent struct {
	at, seq uint64
	pad     [6]uint64 // one cache line, like the simulator's events
}

type refHeap struct {
	h   []*refEvent
	rng xorshift
	seq uint64
}

func newRefHeap() *refHeap {
	r := &refHeap{rng: 0x9e3779b97f4a7c15}
	for i := 0; i < refHeapSize; i++ {
		r.push(&refEvent{at: r.rng.next() % 1_000_000, seq: r.seq})
		r.seq++
	}
	return r
}

func (r *refHeap) less(i, j int) bool {
	a, b := r.h[i], r.h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (r *refHeap) push(e *refEvent) {
	r.h = append(r.h, e)
	i := len(r.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !r.less(i, p) {
			break
		}
		r.h[i], r.h[p] = r.h[p], r.h[i]
		i = p
	}
}

func (r *refHeap) pop() *refEvent {
	n := len(r.h) - 1
	top := r.h[0]
	r.h[0] = r.h[n]
	r.h = r.h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rr := l + 1; rr < n && r.less(rr, l) {
			m = rr
		}
		if !r.less(m, i) {
			break
		}
		r.h[i], r.h[m] = r.h[m], r.h[i]
		i = m
	}
	return top
}

func (r *refHeap) hold(ops int) {
	for i := 0; i < ops; i++ {
		e := r.pop()
		e.at += r.rng.next() % 100_000
		e.seq = r.seq
		r.seq++
		r.push(e)
	}
}

// reference is the kernel sized for one child.
//
// The kernel is single-threaded even for the two workloads that keep two
// threads busy. A copy per thread, free-running or in lock-step rounds like
// shards at a barrier, was tried for paper_k8_2shards and tracked it no
// better (same seed, ten children: spread 0.17 with one thread, 0.17 and
// 0.15 with two): that workload's noise is goroutine wake-ups between vCPUs
// at 20,000 barriers per run, which no kernel of ours predicted.
type reference struct {
	heap *refHeap
	// ops and nominal shrink together under -scale, so that the tests'
	// children do not spend their time in the kernel.
	ops     int
	nominal float64
}

func newReference(scale float64) *reference {
	r := &reference{heap: newRefHeap(), ops: scaleCount(refOps, scale, 10_000)}
	r.nominal = refNominalS * float64(r.ops) / refOps
	r.sample() // warm the kernel's own caches
	return r
}

// sample runs the kernel once and returns its host seconds.
func (r *reference) sample() float64 {
	t0 := time.Now()
	r.heap.hold(r.ops)
	return time.Since(t0).Seconds()
}

// correct rescales a raw host time measured between two kernel samples.
func (r *reference) correct(raw, before, after float64) float64 {
	return raw * r.nominal / ((before + after) / 2)
}
