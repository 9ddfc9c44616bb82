#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload reproduce --seed 2001 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the benchmark binary and span files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out=.bench_build
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
