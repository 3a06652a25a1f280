package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The suite is the benchmark's own parent: for each workload it starts a
// few timed children and one traced child — separate processes, so every
// child begins with a fresh heap — and reports the median of the timed
// children beside their quartiles. The children are this same program in
// the one-child mode the acceptance driver uses.

// environment is recorded before each workload.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	// Busy is the share of all CPUs' time spent non-idle over the quarter
	// second before the workload started, while the suite itself slept.
	Busy float64 `json:"busy"`
}

// noisyBusy is the busy share above which a workload's numbers are marked
// noisy: with the suite asleep, something else was using half a core or
// more. The one-minute load average is printed too, but it cannot be the
// test: after the first workload it mostly remembers the suite's own
// children.
const noisyBusy = 0.25

// cpuJiffies reads the idle and total jiffies of all CPUs together.
func cpuJiffies() (idle, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseFloat(f, 64) // a malformed field counts as 0
		total += v
		if i == 4 || i == 5 { // idle, iowait
			idle += v
		}
	}
	return idle, total
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64) // stays 0 when unreadable
		}
	}
	idle0, total0 := cpuJiffies()
	time.Sleep(250 * time.Millisecond)
	if idle1, total1 := cpuJiffies(); total1 > total0 {
		env.Busy = 1 - (idle1-idle0)/(total1-total0)
	}
	// A checkout without git history (the acceptance driver's) has no commit.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// workloadReport is one workload's part of a suite report.
type workloadReport struct {
	Env         environment        `json:"env"`
	Noisy       bool               `json:"noisy"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Fingerprint string             `json:"fingerprint"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer"`
}

func (wr workloadReport) failedShare() float64 {
	return float64(wr.Failed) / float64(max(wr.Attempted, 1))
}

// report is what -out writes and -compare reads.
type report struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Scale     float64                   `json:"scale"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// childOutput is a child's driver line plus the fingerprint it prints on
// the line before.
type childOutput struct {
	driverLine
	fingerprint string
}

// runChild starts this program again as one child and parses what it
// printed. Standard error passes through, so failures are seen.
func runChild(exe, workload string, seed uint64, seconds, scale float64, trace int, outdir string) (childOutput, error) {
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"--outdir", outdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childOutput{}, fmt.Errorf("child %s --trace %d: %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var c childOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.driverLine); err != nil {
		return childOutput{}, fmt.Errorf("child %s --trace %d: last line is not a result: %w", workload, trace, err)
	}
	if len(lines) >= 2 {
		c.fingerprint = strings.TrimPrefix(lines[len(lines)-2], fingerprintPrefix)
	}
	return c, nil
}

// runSuite runs every workload matching pattern and prints and returns the
// report. w receives the human-readable table.
func runSuite(w io.Writer, exe string, pattern *regexp.Regexp, seed uint64, seconds, scale float64, reps int, outdir string) (report, error) {
	rep := report{Seed: seed, Seconds: seconds, Scale: scale, Workloads: map[string]workloadReport{}}
	for i := range workloads {
		wl := &workloads[i]
		if !pattern.MatchString(wl.name) {
			continue
		}
		env := readEnvironment()
		wr := workloadReport{Env: env, Noisy: env.Busy > noisyBusy, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}
		fmt.Fprintf(w, "\n== %s   nproc %d  GOMAXPROCS %d  %s  %s  commit %s  load %.2f  busy %.2f", wl.name, env.NProc, env.GOMAXPROCS, env.Go, env.CPU, env.Commit, env.Load1, env.Busy)
		if wr.Noisy {
			fmt.Fprintf(w, "  NOISY (busy above %.2f before the suite touched it)", noisyBusy)
		}
		fmt.Fprintf(w, "\n   %s\n", wl.why)

		values := map[string][]float64{}
		for r := 0; r < reps; r++ {
			c, err := runChild(exe, wl.name, seed, seconds, scale, 0, outdir)
			if err != nil {
				return rep, err
			}
			wr.Attempted += c.Attempted
			wr.Failed += c.Failed
			if r == 0 {
				wr.Fingerprint = c.fingerprint
			} else if c.fingerprint != wr.Fingerprint {
				// Children of one seed must agree; the child that differs
				// counts as failed in full.
				wr.Failed += c.Attempted - c.Failed
				fmt.Fprintf(w, "   child %d fingerprint %s differs from child 0's %s\n", r, c.fingerprint, wr.Fingerprint)
			}
			for name, v := range c.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		traced, err := runChild(exe, wl.name, seed, seconds, scale, 1, outdir)
		if err != nil {
			return rep, err
		}
		wr.Attempted += traced.Attempted
		wr.Failed += traced.Failed

		fmt.Fprintf(w, "   %-28s %14s %14s %14s  %3s  %-13s %s\n", "end to end (untraced)", "median", "q1", "q3", "n", "unit", "bound")
		for _, m := range endToEnd {
			s := summarize(values[m.Name])
			wr.EndToEnd[m.Name] = s
			fmt.Fprintf(w, "   %-28s %14.6g %14.6g %14.6g  %3d  %-13s %.2f %s\n", m.Name, s.Median, s.Q1, s.Q3, s.N, m.Unit, m.Bound, m.Better)
		}
		fmt.Fprintf(w, "   %-28s %14.6g %47s\n", "failed_share", wr.failedShare(), fmt.Sprintf("%d of %d runs", wr.Failed, wr.Attempted))
		fmt.Fprintf(w, "   %-28s %14s\n", "fingerprint", wr.Fingerprint)
		fmt.Fprintf(w, "   per layer (traced child)\n")
		for _, m := range perLayer {
			v := traced.Metrics[m.Name].Value
			wr.PerLayer[m.Name] = v
			fmt.Fprintf(w, "   %-28s %14.6g %-8s\n", m.Name, v, m.Unit)
		}
		rep.Workloads[wl.name] = wr
	}
	if len(rep.Workloads) == 0 {
		return rep, fmt.Errorf("no workload matches %q", pattern)
	}
	return rep, nil
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports prints one row per workload × end-to-end metric present in
// both reports and returns how many rows regressed and how many could not
// be resolved.
func compareReports(w io.Writer, a, b report) (regressed, unresolved int) {
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-18s %-17s %12s %12s %12s | %12s %12s %12s | %6s %8s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "bound", "B worse", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v, worse := verdict(m, sa, sb)
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-18s %-17s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %6.2f %+7.1f%%  %s\n",
				name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, m.Bound, worse*100, v)
		}
		// Failures gate like a metric with bound 0: any more than before.
		fa, fb := wa.failedShare(), wb.failedShare()
		v := verdictUnchanged
		switch {
		case fb > fa:
			v = verdictRegressed
			regressed++
		case fb < fa:
			v = verdictImproved
		}
		fmt.Fprintf(w, "%-18s %-17s %12.6g %25s | %12.6g %25s | %6.2f %8s  %s\n", name, "failed_share", fa, "", fb, "", 0.0, "", v)
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(w, "%-18s fingerprint %s -> %s: the simulated results differ\n", name, wa.Fingerprint, wb.Fingerprint)
		}
	}
	return regressed, unresolved
}
