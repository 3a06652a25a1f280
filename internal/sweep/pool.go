// Package sweep is a bounded worker pool for fanning many independent
// jobs — in this repository, whole simulation experiments — across OS
// threads. It is deliberately generic: a job is an index plus a closure,
// results land in a slice at their job's index, and nothing about the
// pool depends on what a job computes. Each worker also lends its jobs
// one slot of caller-chosen state (see Run) — how RunSweep recycles an
// engine+network pair from one replicate to the next without a shared,
// locked free list.
//
// Design constraints, in order:
//
//  1. Determinism. Results are identified by index, never by completion
//     order, so a sweep's output is identical for any worker count.
//  2. Bounded memory. Exactly Workers jobs are in flight; dispatch is an
//     atomic counter, not a buffered queue, so a million-job sweep holds
//     one slice and Workers goroutines.
//  3. Fail fast. The first job error stops dispatch: no job starts after
//     it, and jobs already running finish. The lowest-indexed observed
//     error is returned.
package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Options tunes one Run call.
type Options struct {
	// Workers is the number of jobs in flight: at least one, and capped
	// at the job count.
	Workers int

	// OnDone, if non-nil, is called after each successful job with the
	// number of jobs finished so far, the total, and the finished job's
	// index. Calls are serialised by the pool, so OnDone may touch
	// shared state (progress bars, counters) without locking.
	OnDone func(done, total, index int)
}

// Run executes job(slot, i) for every i in [0, n) on a pool of
// Options.Workers goroutines and returns the n results in index order.
//
// slot points at the calling worker's own S: zero when the worker
// starts, seen by that worker's jobs only, one after the other, and
// dropped when the worker exits — so whatever jobs park there is
// bounded by the worker count and needs no locking.
//
// Once a job fails no further job starts; jobs already running finish.
// Run then returns the lowest-indexed error it observed, wrapped with the
// job index.
func Run[S, T any](n int, opts Options, job func(slot *S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := min(max(opts.Workers, 1), n)

	results := make([]T, n)
	var (
		next     atomic.Int64 // dispatch cursor
		failed   atomic.Bool  // a job failed: dispatch stops
		mu       sync.Mutex   // guards done, firstErr*, serialises OnDone
		done     int
		firstErr error
		errIndex = -1
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var slot S
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				res, err := job(&slot, i)
				if err != nil {
					mu.Lock()
					if errIndex < 0 || i < errIndex {
						firstErr, errIndex = err, i
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
				mu.Lock()
				results[i] = res
				done++
				if opts.OnDone != nil {
					opts.OnDone(done, n, i)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if errIndex >= 0 {
		return nil, fmt.Errorf("sweep: job %d: %w", errIndex, firstErr)
	}
	return results, nil
}
