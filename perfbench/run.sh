#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a parsurf checkout. The binary and the Go
# build cache live under .bench_build/ at the root; build output goes to
# standard error, so the last line of standard output is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
