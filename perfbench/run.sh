#!/usr/bin/env bash
# Builds tuneserve and the benchmark from this checkout into .bench_build,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload table1-durable --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/home"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off GOPROXY=off
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config TMPDIR=$out
go build -o "$out/tuneserve" ./cmd/tuneserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/tuneserve" -work "$out/work" "$@"
