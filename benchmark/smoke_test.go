package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// childEnv makes the test binary behave as the benchmark itself, so that
// the suite can start its children without a separate build.
const childEnv = "BENCHMARK_TEST_AS_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSuiteSmoke pushes all five workloads through the child protocol at a
// fiftieth of their size: one timed and one traced child each, separate
// processes, every metric printed, nothing failed.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts ten child processes")
	}
	t.Setenv(childEnv, "1")
	outdir := t.TempDir()
	var table bytes.Buffer
	rep, err := runSuite(&table, os.Args[0], regexp.MustCompile(""), 1, 0, 0.02, 1, outdir)
	if err != nil {
		t.Fatalf("%v\n%s", err, table.String())
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("suite reported %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d runs failed\n%s", w.name, wr.Failed, wr.Attempted, table.String())
		}
		if wr.Fingerprint == "" {
			t.Errorf("%s: no fingerprint", w.name)
		}
		for _, m := range endToEnd {
			if s := wr.EndToEnd[m.Name]; !(s.Median > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, m.Name, s.Median)
			}
		}
		for _, m := range perLayer {
			if _, ok := wr.PerLayer[m.Name]; !ok {
				t.Errorf("%s: traced child printed no %s", w.name, m.Name)
			}
		}
		if got := wr.PerLayer["sim.events"]; !(got > 0) {
			t.Errorf("%s: sim.events = %v", w.name, got)
		}
		for _, f := range []string{w.name + ".trace.json", w.name + ".cpu.pprof"} {
			if st, err := os.Stat(filepath.Join(outdir, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: traced child left no %s", w.name, f)
			}
		}
	}
	if rep.Workloads["paper_k8_2shards"].PerLayer["shard.barriers"] == 0 {
		t.Error("paper_k8_2shards reports no barriers")
	}
	if rep.Workloads["paper_k8"].PerLayer["shard.barriers"] != 0 {
		t.Error("paper_k8 is sequential but reports barriers")
	}
	if rep.Workloads["k16_churn"].PerLayer["routing.recomputes"] == 0 {
		t.Error("k16_churn reports no recomputes")
	}
}
