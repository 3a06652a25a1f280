// Command benchmark is the repository's performance benchmark: five
// workloads, six end-to-end metrics with regression bounds, and a per-layer
// budget measured from outside the simulator. README.md in this directory
// is the manual; BENCHMARK.json at the repository root names run.sh, which
// builds and starts this program.
//
//	bash benchmark/run.sh --workload W --seed S --seconds N --trace 0|1   one child (the driver's contract)
//	bash benchmark/run.sh -suite [-workload REGEX] [-reps 3] [-out FILE]   every workload, timed and traced children
//	bash benchmark/run.sh -compare A.json B.json                           verdict per workload × metric
//	bash benchmark/run.sh -contract                                        BENCHMARK.json as the program defines it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
)

// driverLine is the last line a child prints on standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "the workload to run as one child; with -suite, a regular expression (default all)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "host seconds a timed child keeps repeating the workload for")
		traced   = flag.Int("trace", 0, "0: timed child, end-to-end metrics; 1: traced child, per-layer metrics")
		scale    = flag.Float64("scale", 1, "shrink flow counts, horizons and replicates (tests use 0.02); never K, hosts or shards")
		outdir   = flag.String("outdir", "benchmark/out", "where traced children write <workload>.trace.json and <workload>.cpu.pprof")
		suite    = flag.Bool("suite", false, "run every matching workload: -reps timed children and one traced child each")
		reps     = flag.Int("reps", 3, "timed children per workload in -suite")
		out      = flag.String("out", "", "with -suite, also write the report as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -suite reports: benchmark -compare A.json B.json")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()

	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	if *contract {
		printContract()
		return
	}

	// A shard or sweep row measured without the cores to run it on is the
	// bug the ROADMAP names; refuse rather than print it.
	if runtime.GOMAXPROCS(0) < 2 {
		fatalf(2, "GOMAXPROCS is %d: paper_k8_2shards and sweep_tiny need two cores, and no row is comparable without them", runtime.GOMAXPROCS(0))
	}
	if *scale <= 0 || *scale > 1 {
		fatalf(2, "-scale %v is outside (0, 1]", *scale)
	}

	if *suite {
		os.Exit(suiteMain(*name, *seed, *seconds, *scale, *reps, *outdir, *out))
	}

	w := findWorkload(*name)
	if w == nil {
		fatalf(2, "unknown workload %q", *name)
	}
	line := driverLine{Metrics: map[string]metricValue{}}
	var reasons []string
	var fp string
	if *traced == 0 {
		res := w.measureTimed(*seed, *scale, *seconds, 10)
		fmt.Fprintf(os.Stderr, "%s seed %d: %d reps, fingerprint %s, raw wall %.4f s, reference %.4f s (nominal %.3f)\n",
			w.name, *seed, res.reps, res.fingerprint, res.rawWallS, res.refS, refNominalS)
		line.Attempted, line.Failed, reasons, fp = res.attempted, res.failed, res.reasons, res.fingerprint
		for _, m := range endToEnd {
			line.Metrics[m.Name] = metricValue{Value: res.metrics[m.Name], Unit: m.Unit}
		}
	} else {
		res := w.measureTraced(*seed, *scale, *outdir)
		fmt.Fprintf(os.Stderr, "%s seed %d: traced, fingerprint %s, spans in %s/%s.trace.json, profile in %s/%s.cpu.pprof\n",
			w.name, *seed, res.fingerprint, *outdir, w.name, *outdir, w.name)
		line.Attempted, line.Failed, reasons, fp = res.attempted, res.failed, res.reasons, res.fingerprint
		for _, m := range perLayer {
			line.Metrics[m.Name] = metricValue{Value: res.metrics[m.Name], Unit: m.Unit}
		}
	}
	for _, r := range reasons {
		fmt.Fprintln(os.Stderr, "benchmark: failed:", r)
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		fatalf(1, "%v", err)
	}
	// The suite reads the fingerprint off the line before the result.
	fmt.Println(fingerprintPrefix + fp)
	fmt.Println(string(data))
}

const fingerprintPrefix = "fingerprint "

// runSeconds is how long the acceptance driver lets a timed child measure.
const runSeconds = 20

// printContract writes BENCHMARK.json from the program's own tables, so
// that the file cannot drift from what the children print.
func printContract() {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []namedWhy    `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{w.name, w.why})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Println(string(data))
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func suiteMain(pattern string, seed uint64, seconds, scale float64, reps int, outdir, out string) int {
	re, err := regexp.Compile(pattern)
	if err != nil {
		fatalf(2, "-workload: %v", err)
	}
	if reps < 1 {
		fatalf(2, "-reps %d: need at least one timed child", reps)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf(1, "%v", err)
	}
	rep, err := runSuite(os.Stdout, exe, re, seed, seconds, scale, reps, outdir)
	if err != nil {
		fatalf(1, "%v", err)
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf(1, "%v", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fatalf(1, "%v", err)
		}
	}
	for _, wr := range rep.Workloads {
		if wr.Failed > 0 {
			return 1
		}
	}
	return 0
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fatalf(2, "-compare takes two report files, got %d", len(args))
	}
	a, err := readReport(args[0])
	if err != nil {
		fatalf(1, "%v", err)
	}
	b, err := readReport(args[1])
	if err != nil {
		fatalf(1, "%v", err)
	}
	regressed, unresolved := compareReports(os.Stdout, a, b)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
