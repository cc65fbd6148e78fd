#!/usr/bin/env bash
# Builds the simbench command from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash simbench/run.sh --workload burst_idio --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary stay under .bench_build/ at the
# root of the checkout; nothing is fetched (the benchmark and the
# simulator use the standard library only).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOENV=off \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/simbench" && go build -o "$build/simbench" .)
exec "$build/simbench" "$@"
