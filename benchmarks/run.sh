#!/usr/bin/env bash
# The benchmark's one command (see ../BENCHMARK.json): builds nodebench from
# source and runs it with the arguments given, e.g.
#
#   bash benchmarks/run.sh --workload sat-uniform --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under this directory: the Go
# build cache and the binary in .build/, run scratch in .work/, -out files
# and trace files in results/. The build is incremental, so only the first
# run in a fresh checkout pays for it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

build="$PWD/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The toolchain named in go.mod is the one installed; never fetch another.
export GOTOOLCHAIN=local

go build -o "$build/nodebench" ./nodebench
exec "$build/nodebench" "$@"
