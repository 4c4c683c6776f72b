#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --slo-ms 10 --trace-tol 0.05 \
#       --workload campaign --seed 1 --seconds 20 --trace 0
#
# (the --slo-ms, --trace-tol and --seconds of BENCHMARK.json).
#
# Build outputs, the Go build cache, scratch databases and trace files all
# go under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
