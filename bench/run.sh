#!/usr/bin/env bash
# Builds viatorperf from the sources of the checkout this is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload s1-metropolis --seed 42 --seconds 15 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build so nothing is written outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C bench -o "$out/viatorperf" ./viatorperf
exec "$out/viatorperf" "$@"
