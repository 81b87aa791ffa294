#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload micro-mem --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the runs leave
# behind (binary, Go build cache, workload files, span dumps) goes under
# .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
mkdir -p "$GOTMPDIR"
go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" "$@"
