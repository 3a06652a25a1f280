package sweep

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunReturnsResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 100} {
		got, err := Run(50, Options{Workers: workers},
			func(_ *struct{}, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d results, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	got, err := Run(0, Options{},
		func(_ *struct{}, i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Run(0 jobs) = %v, %v; want nil, nil", got, err)
	}
}

func TestRunConcurrencyBound(t *testing.T) {
	const workers = 3
	var inflight, peak atomic.Int64
	_, err := Run(40, Options{Workers: workers},
		func(_ *struct{}, i int) (struct{}, error) {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak in-flight jobs = %d, want <= %d", p, workers)
	}
}

func TestRunFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Run(1000, Options{Workers: 4},
		func(_ *struct{}, i int) (int, error) {
			ran.Add(1)
			if i == 5 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("all %d jobs ran despite early error", n)
	}
}

func TestRunOnDoneSerialisedAndComplete(t *testing.T) {
	var seen []int
	var lastDone int
	got, err := Run(64, Options{
		Workers: 8,
		OnDone: func(done, total, index int) {
			// Serialised by the pool: plain slice append is safe, and
			// the done counter must be strictly increasing.
			if done != lastDone+1 || total != 64 {
				t.Errorf("OnDone(done=%d, total=%d) after done=%d", done, total, lastDone)
			}
			lastDone = done
			seen = append(seen, index)
		},
	}, func(_ *struct{}, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 || len(seen) != 64 {
		t.Fatalf("results=%d callbacks=%d, want 64/64", len(got), len(seen))
	}
	marks := make([]bool, 64)
	for _, i := range seen {
		if marks[i] {
			t.Fatalf("OnDone fired twice for index %d", i)
		}
		marks[i] = true
	}
}

// TestRunSlotIsWorkerLocal: a slot starts at zero, is handed to one
// worker's jobs only, one after the other, and there are no more slots
// than workers — the bound RunSweep's instance retention rests on. The
// unsynchronised counter in the slot is the point: run under -race.
func TestRunSlotIsWorkerLocal(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var slots atomic.Int64
		// Each job returns how many jobs its slot had seen, itself included.
		got, err := Run(200, Options{Workers: workers},
			func(jobs *int, i int) (int, error) {
				if *jobs == 0 {
					slots.Add(1)
				}
				*jobs++
				time.Sleep(10 * time.Microsecond)
				return *jobs, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if n := slots.Load(); n < 1 || n > int64(workers) {
			t.Errorf("workers=%d: %d slots handed out", workers, n)
		}
		// kth[k] jobs were the k-th on their slot. A slot that is never
		// reset or shared gives every k up to its total exactly once, so
		// the counts start at the slot count and never rise.
		kth := make(map[int]int)
		for _, k := range got {
			kth[k]++
		}
		if kth[1] != int(slots.Load()) {
			t.Errorf("workers=%d: %d first jobs on %d slots", workers, kth[1], slots.Load())
		}
		for k := 2; kth[k] > 0; k++ {
			if kth[k] > kth[k-1] {
				t.Errorf("workers=%d: %d jobs were a slot's %d-th but only %d its %d-th",
					workers, kth[k], k, kth[k-1], k-1)
			}
		}
	}
}
