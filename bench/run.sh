#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout and run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build writes — compiler cache, temporary files, the go
# command's own counters and settings, the binary — stays under
# .bench_build/ in the checkout. In a directory holding only
# BENCHMARK.json and bench/ there is no go.mod and no internal/ tree:
# there is nothing to benchmark, and this exits non-zero without
# printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
  echo "bench/run.sh: $root is not a checkout of the repository (no go.mod, no internal/)" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -o "$build/peering-bench" ./bench
exec "$build/peering-bench" "$@"
