#!/usr/bin/env bash
# Builds geobench from the checkout's sources and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/geobench/run.sh --workload cold-file --seed 42 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache, the compiler's temp files, the binary, and the
# benchmark's generated corpora.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench/geobench" && go build -o "$out/geobench" .)
exec "$out/geobench" -workdir "$out/work" "$@"
