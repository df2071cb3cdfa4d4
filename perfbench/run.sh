#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload replay-city --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Fall back to the Go distribution's default install location when go
# is not on PATH.
PATH="$PATH:/usr/local/go/bin"

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
