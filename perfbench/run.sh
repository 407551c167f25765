#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload skew --seed 1 --seconds 40 --trace 0
# Build outputs, the Go build cache, WAL temp dirs and span files all stay
# under .bench_build in the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOENV=off
# The commit goes into the run manifest; a checkout without its own git
# metadata reports "unknown".
commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$PWD" ]; then
	commit=$(git rev-parse HEAD)$(git diff --quiet HEAD -- || echo -dirty)
fi
go -C perfbench build -buildvcs=false -ldflags "-X main.commit=$commit" -o "../$out/perfbench" .
exec "$out/perfbench" "$@"
