#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (Go's build cache, the binary, WAL directories, result and trace
# files) goes under .bench_build in the checkout root, which .gitignore names.
#
#   bash benchmark/run.sh --workload browse_hot --seed 1 --seconds 20 --trace 0
#
# Without arguments it runs the whole suite; see README.md for -compare and -aa.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export TMPDIR="$build/tmp"

(cd "$here" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
