#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload train-ooo --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload plan-cold --runs 5 --seconds 20
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
