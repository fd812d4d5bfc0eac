#!/usr/bin/env bash
# Builds the SUSHI benchmark from this checkout and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload sim-cohorts --seed 1 --seconds 55 --trace 0
#
# Every file the build writes (binary, Go build cache, temporary files,
# Go's config and telemetry directories) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
