#!/usr/bin/env bash
# Contributor gate: vet, lint, build, race-test, the hot-path allocation
# guards, and smoke runs of every example and cmd/demosnet. Run from
# anywhere; exits non-zero on the first failure.
#
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== demoslint ./... (determinism, maporder, layering, hotpathalloc, wirepair, ownership, suppressaudit, killcover)"
go run ./cmd/demoslint ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== chaos soak (short mode, fixed seeds: 4242 / 99 / 7)"
go test -short -count=1 ./internal/chaos/

echo "== shard-count invariance: chaos matrix + seed reproducibility + §6 conformance"
go test -short -count=1 -run 'TestChaosSoakSharded|TestChaosShardedSameSeedReproduces' ./internal/chaos/
go test -count=1 -run 'TestShardSection6Conformance|TestShardCountInvariance|TestShardHotPathZeroAlloc' ./internal/core/

echo "== parallel chaos: lossy 4-shard soak under -race (fixed seeds: 4242 / 20260808)"
go test -race -short -count=1 -run 'TestChaosShardedSameSeedReproduces|TestShardChaosScale1000' ./internal/chaos/
go test -race -short -count=1 -run 'TestShardFaultInjection|TestShardLossyInvariance' ./internal/core/

echo "== hot-path allocation guards + benchmarks (1 iteration smoke)"
go test -run TestHotPathZeroAlloc \
  -bench 'EngineSchedule|EngineDispatchDepth64|NetwSend|MsgEncode|Kernel' \
  -benchtime 1x .

echo "== examples + demosnet smoke runs (each exits non-zero on a lost or wrong process)"
for ex in examples/*/; do
  go run "./$ex" >/dev/null
done
go run ./cmd/demosnet -trace >/dev/null 2>&1

echo "== obs smoke export (metrics snapshot + Chrome timeline)"
mkdir -p artifacts
go run ./cmd/experiments -obs-json artifacts/obs_snapshot.json -trace-out artifacts/obs_timeline.json
# Metric names and values are deterministic, so a regenerated snapshot that
# differs from the checked-in copy is drift: commit it deliberately or fix
# the wiring. Skipped outside a git checkout.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  if ! git diff --exit-code --stat -- artifacts/obs_snapshot.json; then
    echo "FAIL: artifacts/obs_snapshot.json drifted from the checked-in copy" >&2
    exit 1
  fi
fi

echo "== policy tournament (short mode: 32 machines, 4 shards, seeded A/B arms)"
go run ./cmd/experiments -tournament-short -tournament-json artifacts/tournament_findings.json

echo "OK: all checks passed"
