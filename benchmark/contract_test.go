package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is the contract the acceptance
// driver reads; the program is what it runs. They must say the same thing.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef   `json:"end_to_end"`
		PerLayer []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract allows exactly 6", len(keys))
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", doc.PerLayer, perLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is outside the contract's alphabet or length", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name, "")
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end metrics, %d workloads: over the contract's limits", len(perLayer), len(endToEnd), len(workloads))
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside [1, 60]", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}
