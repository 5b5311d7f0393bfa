#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given
# arguments. Everything the build and the run write stays under
# .bench_build/, the Go build cache included.
set -euo pipefail
mkdir -p .bench_build/bin
export GOCACHE="${GOCACHE:-$PWD/.bench_build/go-cache}"
go build -o .bench_build/bin/whowas-bench ./bench
exec .bench_build/bin/whowas-bench "$@"
