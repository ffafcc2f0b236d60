#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash bench/run.sh -workload loop-txn -seed 1
#
# The Go build cache, module cache, temporary files and toolchain
# configuration all live under .bench_build/, so a run reads and writes
# nothing outside the repository.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/vidi-bench" .)
exec "$build/vidi-bench" "$@"
