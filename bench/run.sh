#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory and runs it with the given arguments. Run from the root of a
# checkout:
#
#   bash bench/run.sh --workload pagerank-tcp --seed 1 --seconds 12 --trace 0
#
# Everything the Go toolchain writes (build cache, temporaries, its own
# configuration) is redirected into .bench_build too, so a run reads and
# writes only inside its checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

# The benchmark is its own module beside the program's; it needs the
# program's module one directory up (replace imapreduce => ../).
(cd "$here" && go build -o "$build/imrspine" .)
exec "$build/imrspine" "$@"
