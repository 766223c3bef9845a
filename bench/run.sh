#!/usr/bin/env bash
# Builds the benchmark harness and cmd/adcpsim from the checkout this file
# is in, then runs the harness from the checkout's root with the arguments
# given. Nothing is written outside the checkout: the Go build cache, module
# cache, temporary files and toolchain bookkeeping go to .bench_build/, the
# harness's own files to bench/out/. In a directory without the repository
# around it the build fails and so does this script.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

(cd "$bench" && go build -o "$build/bench" .)
(cd "$root" && go build -o "$build/adcpsim" ./cmd/adcpsim)

cd "$root"
exec "$build/bench" -adcpsim "$build/adcpsim" "$@"
