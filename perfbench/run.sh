#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload lmbench-up --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, trace output.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
