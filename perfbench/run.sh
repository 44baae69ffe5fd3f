#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --service-rate 8 --workload session --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and run scratch data stay under
# $CARGO_TARGET_DIR (default .bench_build), so nothing outside the checkout
# is written.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
