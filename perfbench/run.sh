#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS_DIR NEW_RESULTS_DIR
#
# Everything the build and the runs write stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build, relative to
# the checkout root. The Go build cache is kept there too, so the first
# run in a checkout compiles the standard library (about a minute).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
# A run that has not ended after 175 s is stopped with SIGQUIT, on which
# the Go runtime prints every goroutine's stack before it exits non-zero.
exec timeout -s QUIT -k 5 175 "$build/perfbench/perfbench" -root "$root" -out "$build/perfbench" "$@"
