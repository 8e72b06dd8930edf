#!/usr/bin/env bash
# Entry point BENCHMARK.json names. It builds the harness from the checkout
# it is run in and hands it the arguments; the harness builds cmd/tcqd.
# Everything either writes, the Go build cache included, stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/bench" ./bench >&2
exec "$out/bench" "$@"
