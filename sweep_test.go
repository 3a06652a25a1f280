package mmptcp

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestRunSweepSeedDerivation checks SweepOptions.Seed: zero-seed configs
// get deterministic, distinct derived seeds; explicit seeds are kept.
func TestRunSweepSeedDerivation(t *testing.T) {
	mk := func() []Config {
		a := SmallConfig(ProtoMPTCP, 20) // Seed 0: derived
		b := SmallConfig(ProtoMPTCP, 20) // Seed 0: derived, must differ from a
		c := SmallConfig(ProtoMPTCP, 20)
		c.Seed = 99 // explicit: untouched
		return []Config{a, b, c}
	}
	first, err := RunSweep(mk(), SweepOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSweep(mk(), SweepOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Config.Seed != second[i].Config.Seed {
			t.Errorf("run %d: derived seed not reproducible: %d vs %d",
				i, first[i].Config.Seed, second[i].Config.Seed)
		}
	}
	if first[0].Config.Seed == first[1].Config.Seed {
		t.Errorf("runs 0 and 1 derived the same seed %d", first[0].Config.Seed)
	}
	if first[2].Config.Seed != 99 {
		t.Errorf("explicit seed overwritten: got %d, want 99", first[2].Config.Seed)
	}
}

// TestSweepWorkers pins the pool size RunSweep uses and mmptcpsim -seeds
// reports: the Workers budget divided by the largest Shards among the
// configs, at least one worker and at most one per config.
func TestSweepWorkers(t *testing.T) {
	configs := func(n, shards int) []Config {
		cs := make([]Config, n)
		for i := range cs {
			cs[i] = SmallConfig(ProtoMPTCP, 20)
		}
		cs[n-1].Shards = shards
		return cs
	}
	for _, tc := range []struct {
		n, shards, workers, want int
	}{
		{4, 0, 2, 2},
		{4, 1, 3, 3},
		{2, 0, 8, 2},  // one worker per config at most
		{4, 2, 2, 1},  // a 2-shard config takes two of the two slots
		{4, 2, 5, 2},  // two 2-shard workers in a budget of five
		{4, 2, 1, 1},  // never fewer than one worker
		{8, 2, 16, 8}, // and never more than the configs
	} {
		got := SweepWorkers(configs(tc.n, tc.shards), SweepOptions{Workers: tc.workers})
		if got != tc.want {
			t.Errorf("%d configs, Shards %d, Workers %d: %d workers, want %d",
				tc.n, tc.shards, tc.workers, got, tc.want)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	if got, want := SweepWorkers(configs(64, 2), SweepOptions{}), max(1, procs/2); got != want {
		t.Errorf("64 configs, Shards 2, GOMAXPROCS %d: %d workers, want %d", procs, got, want)
	}
}

// TestRunSweepFirstErrorCancels puts an invalid config mid-sweep and
// checks the error carries its index and the sweep aborts.
func TestRunSweepFirstErrorCancels(t *testing.T) {
	configs := make([]Config, 6)
	for i := range configs {
		configs[i] = SmallConfig(ProtoMPTCP, 20)
		configs[i].Seed = uint64(i + 1)
	}
	configs[2].Protocol = "bogus"
	_, err := RunSweep(configs, SweepOptions{Workers: 2})
	if err == nil {
		t.Fatal("sweep with invalid config succeeded")
	}
	if want := "job 2"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to name %q", err, want)
	}
}

// TestRunSweepProgress checks OnResult fires once per run with a strictly
// increasing done counter.
func TestRunSweepProgress(t *testing.T) {
	configs := make([]Config, 5)
	for i := range configs {
		configs[i] = SmallConfig(ProtoMPTCP, 20)
		configs[i].Seed = uint64(i + 1)
	}
	last := 0
	seen := make(map[int]bool)
	_, err := RunSweep(configs, SweepOptions{
		Workers: 3,
		OnResult: func(done, total, index int) {
			if done != last+1 || total != len(configs) {
				t.Errorf("OnResult(done=%d, total=%d) after done=%d", done, total, last)
			}
			last = done
			if seen[index] {
				t.Errorf("OnResult fired twice for run %d", index)
			}
			seen[index] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != len(configs) {
		t.Errorf("OnResult fired %d times, want %d", last, len(configs))
	}
}

func ExampleRunSweep() {
	// Figure 1(a)'s scan — MPTCP short-flow FCT vs subflow count — as
	// one parallel sweep. Tiny scale so the example runs fast.
	configs := make([]Config, 3)
	for i := range configs {
		configs[i] = SmallConfig(ProtoMPTCP, 20)
		configs[i].Subflows = 1 << i // 1, 2, 4
		configs[i].Seed = 1
	}
	results, err := RunSweep(configs, SweepOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, res := range results {
		fmt.Printf("subflows=%d completed=%d\n",
			configs[i].Subflows, res.ShortSummary.Count)
	}
	// Output:
	// subflows=1 completed=20
	// subflows=2 completed=20
	// subflows=4 completed=20
}
