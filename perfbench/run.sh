#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the root of the checkout:
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 15 --trace 0
# The binary, the Go caches and the span files of traced runs stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
