#!/usr/bin/env bash
# Builds the disttrack benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload rank-seq --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# (.bench_build by default) inside the checkout.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
out="$build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
