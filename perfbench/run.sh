#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root: sh perfbench/run.sh --workload coalloc --seed 1 --seconds 10 --trace 0
# Every build input and output stays under .bench_build in the checkout.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
