#!/usr/bin/env bash
# Builds the benchmark and the hcserve it drives from the source tree,
# then runs one workload:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory: the Go build cache, the
# binaries, the served workloads' journals and the traced runs' spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
# The Go tool's caches, temporary files and its per-user config (where
# it keeps telemetry counters) all go under .bench_build as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off

# The benchmark module replaces hcrowd with the enclosing tree; without
# the tree the build fails and no result is printed.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/hcserve" hcrowd/cmd/hcserve) >&2

exec "$out/bin/perfbench" "$@"
