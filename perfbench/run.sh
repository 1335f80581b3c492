#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload grid_cold --seed 42 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the benchmark binary stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
# The go command keeps its config and usage counters under the user's
# config directory; point that inside the checkout too.
mkdir -p "$out/home"
(cd perfbench && HOME="$out/home" XDG_CONFIG_HOME="$out/home" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
