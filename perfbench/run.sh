#!/usr/bin/env bash
# Builds the perfbench program from the sources of the checkout it is run
# in, then runs it with every argument passed through. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload tpch-repeat --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
