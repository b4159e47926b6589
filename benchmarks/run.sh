#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmarks/run.sh --workload tcp-point --seed 1 --seconds 15 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, the traced run's spans under
# benchmarks/out/. The benchmark is its own module (go.mod here), built
# against the repository it sits in through the replace directive, so
# in a directory without the repository the build fails and nothing is
# printed.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
cd "$here"
go build -o "$build/mvtl-perf" .
exec "$build/mvtl-perf" "$@"
