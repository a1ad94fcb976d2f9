#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash cmd/hbpbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and the run's journals stay under
# .bench_build in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "hbpbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out=$PWD/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=vendor GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/hbpbench" ./cmd/hbpbench
exec "$out/hbpbench" --scratch "$out/run" "$@"
