// Package prof is the tiny shared profiling harness behind the
// -cpuprofile/-memprofile flags of cmd/mmptcpsim and cmd/figures: start
// a CPU profile, run the workload, stop it, and write a heap profile at
// exit. It wraps runtime/pprof so the two commands share flag semantics
// (empty path = off) and error handling.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to path and returns the function
// that stops it; an empty path is a no-op (the returned stop function
// is still safe to call). Defer the stop function immediately.
func Start(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("prof: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("prof: start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap writes an allocation profile to path after a final GC (so
// the profile reflects live heap, not collectable garbage); an empty
// path is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: create mem profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("prof: write mem profile: %w", err)
	}
	return nil
}
