#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run from the repository root; see bench/README.md.
#
#   bash bench/run.sh [-w NAME]... [-seed N] [-runs N] [-seconds S] [-trace]
#
# Build outputs, the Go build cache and the ops' temporary run stores all
# stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C bench build -o "$out/mlorass-bench" .
exec "$out/mlorass-bench" "$@"
