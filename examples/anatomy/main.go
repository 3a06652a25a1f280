// Anatomy demonstrates the flight-recorder workflow: a ring-mode trace
// stays armed on every run at O(1) memory, and only when a run trips an
// anomaly predicate does the recorder's bounded tail get exported for
// post-mortem. This is how you debug the one seed in fifty that
// misbehaves without paying full-trace cost on the forty-nine that
// don't.
//
// The loop replays a faulted scenario — two agg-core cables dead for
// half a second while short TCP flows arrive — across seeds through
// RunTraced. The anomaly predicate here is "some flow stalled into
// RTO"; the first offending seed's trace is written as
// Chrome trace-event JSON, loadable at https://ui.perfetto.dev, where
// flows appear as async spans and fault/routing events as instants.
//
// For a full-fidelity dissection of a single victim flow, see
// `go run ./cmd/figures -fig anatomy` which uses full-mode tracing.
//
//	go run ./examples/anatomy [seeds]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
)

import mmptcp "repro"

func main() {
	seeds := 8
	if len(os.Args) > 1 {
		n, err := strconv.Atoi(os.Args[1])
		if err != nil {
			log.Fatalf("bad seed count %q", os.Args[1])
		}
		seeds = n
	}

	cfg := mmptcp.SmallConfig(mmptcp.ProtoTCP, 200)
	cfg.MaxSimTime = 30 * mmptcp.Second
	cfg.Faults = mmptcp.FaultsConfig{
		Events:          mmptcp.FailCables(mmptcp.LayerAgg, 2, 200*mmptcp.Millisecond, 700*mmptcp.Millisecond),
		ReconvergeDelay: 20 * mmptcp.Millisecond,
	}
	// Ring mode: the recorder keeps only the most recent 64k events, so
	// arming it on every run costs a fixed buffer, however long the run.
	cfg.Trace = mmptcp.TraceConfig{Mode: mmptcp.TraceRing}

	fmt.Printf("replaying the faulted scenario over %d seeds, flight recorder armed\n\n", seeds)
	fmt.Println("seed  short_mean  short_max  rto_flows  blackholed  verdict")
	dumped := false
	for seed := 1; seed <= seeds; seed++ {
		run := cfg
		run.Seed = uint64(seed)
		res, rec, err := mmptcp.RunTraced(run)
		if err != nil {
			log.Fatal(err)
		}
		s := res.ShortSummary
		verdict := "clean"
		if s.WithRTO > 0 {
			verdict = "ANOMALY: flows stalled into RTO"
			if !dumped {
				path := fmt.Sprintf("anatomy-seed%d.json", seed)
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := rec.WriteChromeTrace(f); err != nil {
					log.Fatal(err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				verdict += fmt.Sprintf(" -> %s (last %d of %d events)", path, rec.Len(), rec.Total())
				dumped = true
			}
		}
		fmt.Printf("%4d  %8.1fms  %7.1fms  %9d  %10d  %s\n",
			seed, s.MeanMs, s.MaxMs, s.WithRTO, res.Blackholed, verdict)
	}
	if !dumped {
		fmt.Println("\nno seed tripped the predicate; nothing recorded to disk")
	} else {
		fmt.Println("\nload the dump at https://ui.perfetto.dev: flows are async spans,")
		fmt.Println("faults and FIB flips are instants on the fabric/control tracks")
	}
}
