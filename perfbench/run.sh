#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mirror --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, module cache, temporary files and the binary.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
