#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read_mostly --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (the binary, the Go build cache, the
# toolchain's telemetry counters) stays in the build directory inside the
# checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home"
export GOCACHE=$out/gocache GOPATH=$out/gopath HOME=$out/home XDG_CONFIG_HOME=$out/home
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
