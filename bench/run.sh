#!/usr/bin/env bash
# Builds the repository benchmark from the checkout that contains this script
# and runs it, passing every argument through (see bench/README.md).
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, the binary, temporary stores and
# journals, and the Go tool's own config and telemetry files. No network
# access is needed; the module has no dependencies outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/sopsbench" .)
exec "$build/sopsbench" "$@"
