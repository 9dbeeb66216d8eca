#!/usr/bin/env bash
# Builds the repository benchmark from the checkout it is run in and runs
# it, passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload oltp-steady --seed 1 --seconds 30 --trace 0
#
# Every build product (binary, Go build cache) lands under .bench_build
# in the checkout, so the benchmark reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
