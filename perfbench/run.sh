#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload routed-uniform --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every Go cache, the binary and the
# span dumps live under .bench_build, so nothing outside the checkout
# is read or written. Without the repository's own module next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
