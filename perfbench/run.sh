#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash perfbench/run.sh --workload fig5-medium --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spans)
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
