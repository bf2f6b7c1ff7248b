#!/usr/bin/env bash
# Builds the benchmark from this checkout's source, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d .git ]; then
  PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || true)"
  export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
