#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; run from the
# repository root, e.g.
#   bash perfbench/run.sh --workload stream-fifo --seed 7 --seconds 35 --trace 0
# Build outputs, the Go build cache and the go command's own config and
# telemetry (XDG_CONFIG_HOME) stay under .bench_build/, and the build
# never reaches the network (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
