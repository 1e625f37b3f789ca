#!/usr/bin/env bash
# Builds and runs the benchmark from a checkout of the repository, keeping
# everything the Go toolchain writes — build cache included — under
# .bench_build in the checkout. Arguments go to the benchmark unchanged:
#
#   bash benchmark/run.sh --workload goal-read --seed 1 --seconds 28 --trace 0
#
# The benchmark measures the repo's own cmd/serve, so without the repo's
# source beside it there is nothing to run: exit 2.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/serve/main.go" || ! -f "$root/BENCHMARK.json" ]]; then
  echo "benchmark: $root is not a checkout of the repository (no go.mod, cmd/serve or BENCHMARK.json)" >&2
  exit 2
fi

# The build cache, the toolchain's scratch files and its telemetry counters
# (kept under the user configuration directory) all land in the checkout;
# no module is downloaded, there being none to download.
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/bin/benchmark" .

cd "$root"
exec "$build/bin/benchmark" "$@"
