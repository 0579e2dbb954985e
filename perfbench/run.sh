#!/usr/bin/env bash
# Builds perfbench from this checkout's sources into .bench_build and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-ramp --seed 1 --seconds 50 --trace 0
#
# The Go build cache, temporary files and tool configuration live under
# .bench_build too, so nothing is written outside the checkout. The
# build fails (and nothing is printed on stdout) when the jade sources
# are not next to this directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
