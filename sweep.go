package mmptcp

// Parallel experiment sweeps.
//
// The paper's evaluation is not one simulation but dozens: Figure 1(a)
// alone is nine runs (subflow counts 1..9), the §2/§3 ablations sweep
// switching thresholds, arrival rates and topologies, and every scan is
// embarrassingly parallel — runs share no state, each has an engine,
// network and RNG streams of its own, set up from its Config. RunSweep
// exploits that: it fans a slice of Configs across a bounded worker pool
// (one sim.Engine per worker, never shared) and returns Results in
// config order. Most scans are many seeds over few shapes, so a worker
// keeps the engine+network pair of its last run and resets it for the
// next config of the same shape instead of building another.
//
// Determinism guarantee: a Config fully determines its Results — the
// engine is single-threaded, all randomness flows from Config.Seed
// through sim.RNG streams, and a reset instance is indistinguishable
// from a new one — so RunSweep returns, for every config, byte for byte
// what Run returns for it, regardless of SweepOptions.Workers and of
// which configs a worker happened to run before. The equivalence suite
// locks this in at 1 worker over the whole fault suite and at 4 workers
// per entry group.
//
// Quick start (after `go build ./...` at the repo root — the module is
// plain `repro`, no vendoring, no dependencies):
//
//	configs := make([]mmptcp.Config, 9)
//	for i := range configs {
//		configs[i] = mmptcp.SmallConfig(mmptcp.ProtoMPTCP, 1000)
//		configs[i].Subflows = i + 1
//		configs[i].Seed = 1
//	}
//	results, err := mmptcp.RunSweep(configs, mmptcp.SweepOptions{})
//
// cmd/figures drives all its multi-config scans through RunSweep; on a
// multi-core machine `figures -fig all` completes in roughly 1/NumCPU of
// the serial wall time with byte-identical tables (see -workers).

import (
	"runtime"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// SweepOptions tunes RunSweep. The zero value is ready to use: all CPUs,
// no progress reporting, seeds taken from the configs.
type SweepOptions struct {
	// Workers caps how many experiments run concurrently. Zero or
	// negative means runtime.GOMAXPROCS(0). A sharded config takes Shards
	// of these slots (see SweepWorkers). Each worker owns at most one
	// run instance — live or parked between two configs — so peak memory
	// scales with Workers, not with len(configs) or the number of
	// distinct shapes.
	Workers int

	// Seed, when non-zero, assigns a derived seed to every config whose
	// own Seed is zero: config i receives sim.NewRNGStream(Seed, i)'s
	// first output. Derivation depends only on (Seed, i), so replicate
	// sets are reproducible and statistically independent across i.
	// Configs with explicit seeds are left untouched.
	Seed uint64

	// OnResult, if non-nil, is called after each run completes with the
	// number of runs finished so far, the total, and the finished run's
	// index into configs. Calls are serialised; no locking needed. Runs
	// that were in flight when another run failed still finish and are
	// reported.
	OnResult func(done, total, index int)
}

// RunSweep executes every config as an independent experiment across a
// bounded worker pool and returns the Results in config order (results[i]
// belongs to configs[i]). A failing run stops dispatch: no further run
// starts, and runs already in flight finish. The lowest-indexed error is
// returned, wrapped with its config index.
func RunSweep(configs []Config, opts SweepOptions) ([]*Results, error) {
	if opts.Seed != 0 {
		derived := make([]Config, len(configs))
		for i, cfg := range configs {
			if cfg.Seed == 0 {
				cfg.Seed = sim.NewRNGStream(opts.Seed, uint64(i)).Uint64()
			}
			derived[i] = cfg
		}
		configs = derived
	}
	return sweep.Run(len(configs), sweep.Options{
		Workers: SweepWorkers(configs, opts),
		OnDone:  opts.OnResult,
	}, func(parked **instance, i int) (*Results, error) {
		cfg := configs[i]
		if err := cfg.resolve(true); err != nil {
			return nil, err
		}
		return runRecycled(&cfg, parked)
	})
}

// SweepWorkers is how many experiments RunSweep(configs, opts) runs at
// once. Sharded configs occupy Shards OS threads each, so the Workers
// budget (GOMAXPROCS by default) is divided by the largest Shards among
// configs instead of oversubscribing the machine; the pool never has
// fewer than one worker nor more than one per config.
func SweepWorkers(configs []Config, opts SweepOptions) int {
	budget := opts.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	slots := 1
	for _, cfg := range configs {
		slots = max(slots, cfg.Shards)
	}
	return max(1, min(budget/slots, len(configs)))
}
