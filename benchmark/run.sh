#!/bin/bash
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ at the root of the checkout, then runs it with every
# argument passed on. All of the toolchain's writes (build cache, module
# path, temporary files) are kept inside .bench_build/ as well.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
# GOAMD64=v3 is what the Makefile exports: the packed GEMM kernel's
# math.FMA compiles to a bare VFMADD there.
export GOAMD64=v3 GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
