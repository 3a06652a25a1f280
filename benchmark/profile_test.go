package main

import (
	"math"
	"strings"
	"testing"
)

// cannedTraces is `go tool pprof -traces -sample_index=samples` output cut
// down to one stack per rule: header lines, a label line, an inlined frame,
// the netem Link/Switch/other split, the root package, the three runtime
// buckets and both cross-cuts.
const cannedTraces = `File: mmptcp-bench
Type: cpu
Time: Sep 27, 2026 at 5:00pm (UTC)
Duration: 3.01s, Total samples = 2.95s (98.01%)
-----------+-------------------------------------------------------
         4   repro/internal/sim.(*Engine).less (inline)
             repro/internal/sim.(*Engine).siftDown
             repro/internal/sim.(*Engine).RunUntil
             repro/internal/shard.(*Fabric).Run
             repro.runWith
             main.(*workload).call
             main.main
             runtime.main
-----------+-------------------------------------------------------
         2   runtime.memmove
             repro/internal/netem.(*Link).Enqueue
             repro/internal/netem.(*Switch).Receive
             repro/internal/sim.(*Engine).RunUntil
-----------+-------------------------------------------------------
         1   repro/internal/netem.(*Switch).Receive
             repro/internal/netem.(*Link).deliver
-----------+-------------------------------------------------------
         1   repro/internal/netem.(*PacketPool).Get
             repro/internal/netem.(*Host).NewPacket
             repro/internal/tcp.(*Sender).send
-----------+-------------------------------------------------------
         1   repro/internal/netem.NewLink.func2
             repro/internal/sim.(*Engine).RunUntil
-----------+-------------------------------------------------------
     phase:  run
         2   runtime.mallocgc
             runtime.newobject
             repro/internal/routing.(*ControlPlane).reconcile
             repro/internal/routing.(*ControlPlane).Recompute
-----------+-------------------------------------------------------
         1   runtime.wbBufFlush1
             runtime.wbBufFlush.func1
             runtime.systemstack
             runtime.wbBufFlush
             runtime.gcWriteBarrier2
             repro/internal/sim.(*Engine).push
-----------+-------------------------------------------------------
         1   repro.(*Config).applyDefaults
             repro.RunContext
-----------+-------------------------------------------------------
         1   repro/internal/sweep.Run[go.shape.*uint8].func1
             runtime.goexit
-----------+-------------------------------------------------------
         3   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
         2   runtime.futex
             runtime.futexsleep
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
         2   runtime.nanotime
             time.Now
             main.(*refHeap).sample
`

func TestParseTracesBuckets(t *testing.T) {
	shares, total, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if total != 21 {
		t.Fatalf("total samples = %v, want 21", total)
	}
	want := map[string]float64{
		"sim":           5, // the inlined leaf and the write-barrier stack's leaf-most repro frame
		"netem.link":    3, // runtime leaf under Link.Enqueue; the link's event callback closure
		"netem.switch":  1,
		"netem.other":   1,
		"routing":       2,
		"mmptcp":        1,
		"sweep":         1,
		"runtime.gc":    3,
		"runtime.sched": 2,
		"runtime.other": 2, // the benchmark's own frames are not the simulator's
		// cross-cuts
		"runtime.malloc": 2,
		"runtime.wb":     1,
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("bucket shares sum to %v, want 1", sum)
	}
	for _, b := range shareBuckets {
		if got := shares[b] * total; math.Abs(got-want[b]) > 1e-9 {
			t.Errorf("%s = %v samples, want %v", b, got, want[b])
		}
	}
}

func TestParseTracesDurations(t *testing.T) {
	const text = `Type: cpu
-----------+-------------------------------------------------------
      30ms   repro/internal/tcp.(*Sender).onAck
-----------+-------------------------------------------------------
     1.20s   repro/internal/core.(*Conn).send
-----------+-------------------------------------------------------
     770us   repro/internal/dctcp.(*CC).OnAck
`
	shares, total, err := parseTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-1.23077) > 1e-9 {
		t.Fatalf("total = %v s, want 1.23077", total)
	}
	if got := shares["tcp"]; math.Abs(got-0.03/1.23077) > 1e-9 {
		t.Errorf("tcp share = %v", got)
	}
	if got := shares["core"]; math.Abs(got-1.2/1.23077) > 1e-9 {
		t.Errorf("core share = %v", got)
	}
}

func TestParseTracesEmpty(t *testing.T) {
	if _, _, err := parseTraces(strings.NewReader("Type: cpu\n")); err == nil {
		t.Error("an empty profile parsed without error")
	}
}

func TestShareNames(t *testing.T) {
	for bucket, want := range map[string]string{
		"sim":         "sim.cpu_share",
		"netem.link":  "netem.link_cpu_share",
		"runtime.gc":  "runtime.gc_cpu_share",
		"mmptcp":      "mmptcp.cpu_share",
		"runtime.wb":  "runtime.wb_cpu_share",
		"netem.other": "netem.other_cpu_share",
	} {
		if got := shareName(bucket); got != want {
			t.Errorf("shareName(%q) = %q, want %q", bucket, got, want)
		}
	}
}
