#!/usr/bin/env bash
# Builds bench/wbload from the checkout this script sits in and runs it with
# the given arguments. Everything it writes stays inside the checkout: build
# products (Go's build cache included) under .bench_build/, results under
# bench/out/. This is the `command` of BENCHMARK.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -trimpath -o "$build/wbload" ./wbload
exec "$build/wbload" -root "$root" "$@"
