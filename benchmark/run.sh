#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and
# cache file inside the checkout under .bench_build.
#
#   bash benchmark/run.sh --workload train-explicit --seed 1 --seconds 16 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
# Everything builds from the checkout; never reach for a module proxy.
export GOPROXY=off GOSUMDB=off
bin="$build/benchmark"
(cd "$here" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
cd "$root"
exec "$bin" "$@"
