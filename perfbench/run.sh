#!/usr/bin/env bash
# Builds the THOR end-to-end benchmark from the checkout's source and runs
# it. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload extract --seed 1 --seconds 40 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=mod

# Without the repository's own go.mod next to the benchmark the build
# fails here, and the run exits non-zero before printing a result.
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
