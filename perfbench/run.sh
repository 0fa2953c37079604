#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload scan_full --seed 42 --seconds 20 --trace 0
#
# Build products and the Go build cache stay inside the checkout, under
# .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
