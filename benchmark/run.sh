#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it. Everything
# the Go toolchain writes (build cache, telemetry, the binary) goes under the
# build directory, so a run reads and writes only inside the checkout.
# Usage, from the checkout root:  bash benchmark/run.sh [flags]
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/nopfs-benchmark" .)
cd "$root"
exec "$build/nopfs-benchmark" "$@"
