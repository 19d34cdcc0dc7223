#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload table1-block --seed 1 --seconds 25 --trace 0
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .) >&2
exec "$build/perfbench.bin" -root "$root" "$@"
