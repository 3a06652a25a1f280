#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (and with it the
# simulator) from source into .bench_build/ at the checkout root, then runs
# it with the caller's arguments. The Go build cache and temp dir are pinned
# inside the checkout so nothing is read or written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/mmptcp-bench" .
cd "$root"
exec "$out/mmptcp-bench" "$@"
