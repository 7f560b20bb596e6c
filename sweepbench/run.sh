#!/usr/bin/env bash
# Builds ntvsimd and the sweepbench harness from this checkout, then
# runs the harness with the given arguments, e.g.
#
#   bash sweepbench/run.sh --workload mc_grid --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, daemon data dirs and
# traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$root/.bench_build/sweepbench"
mkdir -p "$work/bin"
export GOCACHE="$work/go-cache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$work/bin/ntvsimd" ./cmd/ntvsimd
go -C sweepbench build -o "$work/bin/sweepbench" .
exec "$work/bin/sweepbench" -bin "$work/bin" -work "$work" "$@"
