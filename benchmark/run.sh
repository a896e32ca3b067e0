#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes (Go build cache, binary, results, traces) stays
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/fedbench" .
exec "$build/fedbench" "$@"
