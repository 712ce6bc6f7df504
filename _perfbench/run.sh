#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash _perfbench/run.sh --workload churn-1k --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the Go
# tool's own config and telemetry counters, the binary) stays under the
# build directory, $CARGO_TARGET_DIR when set, else .bench_build. No network
# access is attempted.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C _perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
