#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweeps --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, profiles and every other file the run
# writes stay under .bench_build/ in that root; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/work" "$@"
