#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload dense_mux --seed 1 --seconds 20 --trace 0
#
# Everything Go writes stays inside the checkout: the build cache goes to
# .bench_build/ (named in .gitignore), and nothing is downloaded.
set -eu
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOPROXY=off GOTOOLCHAIN=local
exec go run ./benchmark "$@"
