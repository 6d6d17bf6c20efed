#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed on. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload select-cold --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh steady --workload descent-chaos
#
# The build cache and the binary live under .bench_build (or
# $CARGO_TARGET_DIR) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
# The go command's caches, temporary files, settings and telemetry counters
# all stay inside the build directory.
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
