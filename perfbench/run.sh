#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload fig15 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary (bin/) and the traced spans (spans/).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
