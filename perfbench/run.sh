#!/usr/bin/env bash
# Builds the benchmark program from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lpc-n256-tcp --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ so the run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
