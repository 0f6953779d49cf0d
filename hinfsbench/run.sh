#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash hinfsbench/run.sh --workload buffered-rw --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) and the spans a traced run writes stay under .bench_build at
# the root of the tree.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/hinfsbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

go build -o "$out/hinfsbench" ./hinfsbench
exec "$out/hinfsbench" "$@"
