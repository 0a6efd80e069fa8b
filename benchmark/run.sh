#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it
# with the arguments given. Everything the build and the run write stays
# under .bench_build/ in that checkout: the Go build cache is pointed
# there, so nothing is read from or left in the user's home.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

(cd "$root/benchmark" && go build -o "$build/mcbound-benchmark" .)
exec "$build/mcbound-benchmark" "$@"
