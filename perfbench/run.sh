#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; every
# argument is passed through (see README.md). Build outputs, the Go build
# cache and the benchmark's scratch files all stay under .bench_build/ at
# the checkout root, and the toolchain is pinned to the local one with no
# module proxy, so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$root/perfbench" -o "$build/wfitperf" . >&2
cd "$root"
exec "$build/wfitperf" "$@"
