#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build directory and runs it.
# Everything the Go toolchain writes (build cache, telemetry) is kept inside
# the checkout, so a run touches nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config"
commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
go build -C bench -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/dosn-bench" .
exec "$build/dosn-bench" "$@"
