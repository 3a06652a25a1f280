package mmptcp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sweepTestConfigs is a small but heterogeneous scan: three protocols,
// two arrival rates, fixed seeds — enough to catch any cross-run state
// leakage without taking minutes. Every config carries a tight MaxSimTime
// so a run that cannot complete its flows (single-path TCP under loss can
// strand one) still ends quickly and deterministically.
func sweepTestConfigs() []Config {
	var configs []Config
	add := func(proto Protocol, rate float64) {
		cfg := SmallConfig(proto, 30)
		cfg.ArrivalRate = rate
		cfg.Seed = 7
		cfg.MaxSimTime = 4 * Second
		configs = append(configs, cfg)
	}
	add(ProtoTCP, 2.5)
	add(ProtoMPTCP, 2.5)
	add(ProtoMPTCP, 5)
	add(ProtoMMPTCP, 2.5)
	add(ProtoMMPTCP, 5)
	return configs
}

// TestRunSweepDeterminism is the serial-vs-parallel guarantee: the same
// configs produce byte-identical measurements no matter how many workers
// the sweep uses, and identical to plain serial Run calls.
func TestRunSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep in -short mode")
	}
	configs := sweepTestConfigs()

	serial := make([]*Results, len(configs))
	for i, cfg := range configs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		serial[i] = res
	}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		got, err := RunSweep(configs, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i].ShortSummary != serial[i].ShortSummary {
				t.Errorf("workers=%d run %d: ShortSummary %+v != serial %+v",
					workers, i, got[i].ShortSummary, serial[i].ShortSummary)
			}
			if got[i].LongThroughputMbps != serial[i].LongThroughputMbps {
				t.Errorf("workers=%d run %d: LongThroughputMbps %v != serial %v",
					workers, i, got[i].LongThroughputMbps, serial[i].LongThroughputMbps)
			}
			if !reflect.DeepEqual(got[i].ShortFlows, serial[i].ShortFlows) {
				t.Errorf("workers=%d run %d: per-flow records differ from serial", workers, i)
			}
			if got[i].Events != serial[i].Events {
				t.Errorf("workers=%d run %d: Events %d != serial %d",
					workers, i, got[i].Events, serial[i].Events)
			}
		}
	}
}

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
