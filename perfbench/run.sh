#!/usr/bin/env bash
# Builds opmapd and the benchmark from this checkout into .bench_build/
# and runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload eager-analyst --seed 1 --seconds 10 --trace 0
#
# Every build and run product stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off GOWORK=off \
    GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off
go build -o "$out/opmapd" ./cmd/opmapd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -opmapd "$out/opmapd" -work "$out/work" "$@"
