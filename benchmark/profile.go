package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// The per-layer CPU budget comes from a CPU profile the benchmark takes
// itself, around the simulator call and nothing else, and reads back as
// text through `go tool pprof -traces` — the toolchain that built the
// benchmark is there to ask, and the module gains no dependency.

// cpuBuckets are the shares that partition the profile: every sample lands
// in exactly one, so they sum to 1.
var cpuBuckets = []string{
	"sim", "netem.link", "netem.switch", "netem.other", "topology",
	"tcp", "mptcp", "core", "dctcp", "routing", "faults", "shard",
	"workload", "metrics", "sweep", "trace", "mmptcp",
	"runtime.gc", "runtime.sched", "runtime.other",
}

// crossCuts overlap the buckets above and each other; they are not part of
// the sum.
var crossCuts = []string{"runtime.malloc", "runtime.wb"}

// shareBuckets is every share a profile yields, partition first.
var shareBuckets = append(append([]string(nil), cpuBuckets...), crossCuts...)

// layerPackages are the simulator's packages under repro/internal that
// have a bucket of their own; anything else in the module counts as the
// root package's.
var layerPackages = map[string]bool{
	"sim": true, "topology": true, "tcp": true, "mptcp": true, "core": true,
	"dctcp": true, "routing": true, "faults": true, "shard": true,
	"workload": true, "metrics": true, "sweep": true, "trace": true,
}

// bucketOfFrame maps one function name to its bucket, or "" when the
// function is not the simulator's.
func bucketOfFrame(fn string) string {
	const internal = "repro/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if pkg == "netem" {
			switch {
			case strings.HasPrefix(rest, "netem.(*Link)."), strings.HasPrefix(rest, "netem.NewLink."):
				return "netem.link" // NewLink.func1/2 are the link's per-packet event callbacks
			case strings.HasPrefix(rest, "netem.(*Switch)."):
				return "netem.switch"
			}
			return "netem.other"
		}
		if layerPackages[pkg] {
			return pkg
		}
		return "mmptcp"
	case strings.HasPrefix(fn, "repro."):
		return "mmptcp"
	}
	return ""
}

// bucketOfStack attributes one sample, given leaf first: to the leaf-most
// frame that is the simulator's, else to one of the runtime buckets.
func bucketOfStack(stack []string) string {
	for _, fn := range stack {
		if b := bucketOfFrame(fn); b != "" {
			return b
		}
	}
	if stackHas(stack, "runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart") {
		return "runtime.gc"
	}
	if stackHas(stack, "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goschedImpl", "runtime.mcall", "runtime.mstart") {
		return "runtime.sched"
	}
	return "runtime.other"
}

// stackHas reports whether any frame starts with one of the prefixes
// (closures append .func1 and the like).
func stackHas(stack []string, prefixes ...string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// parseTraces reads `pprof -traces` text and returns each bucket's and
// each cross-cut's share of all samples, plus the sample total in the
// profile's own unit.
//
// The format is one block per distinct stack, blocks separated by lines of
// dashes; a block's first line carries the value and the leaf frame, the
// following lines one caller each, and lines holding a "key: value" label
// may precede the frames.
func parseTraces(r io.Reader) (shares map[string]float64, total float64, err error) {
	sums := map[string]float64{}
	var stack []string
	var value float64
	inBlock := false
	flush := func() {
		if inBlock && len(stack) > 0 {
			sums[bucketOfStack(stack)] += value
			if stackHas(stack, "runtime.mallocgc") {
				sums["runtime.malloc"] += value
			}
			if stackHas(stack, "runtime.gcWriteBarrier", "runtime.wbBufFlush") {
				sums["runtime.wb"] += value
			}
			total += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----"):
			flush()
			inBlock = true
		case !inBlock || line == "":
			// header lines before the first separator
		default:
			fields := strings.Fields(line)
			if len(stack) == 0 && value == 0 {
				v, ok := parseValue(fields[0])
				if ok && len(fields) >= 2 {
					value = v
					fields = fields[1:]
				}
			}
			if strings.HasSuffix(fields[0], ":") { // a label line
				continue
			}
			stack = append(stack, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("profile holds no samples")
	}
	shares = make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		shares[b] = sums[b] / total
	}
	return shares, total, nil
}

// parseValue reads a sample value as pprof prints it: a bare count, or a
// duration with a unit.
func parseValue(s string) (float64, bool) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"min", 60}, {"hrs", 3600}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err == nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// profiler takes one CPU profile over several calls.
type profiler struct {
	path string
	file *os.File
}

func startProfile(path string) (*profiler, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return &profiler{path: path, file: f}, nil
}

// stop ends the profile and returns the bucket shares.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.file.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", p.path)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares, _, perr := parseTraces(out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", p.path, err)
	}
	return shares, perr
}
