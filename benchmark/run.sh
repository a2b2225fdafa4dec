#!/usr/bin/env bash
# Builds the benchmark program from this checkout and runs it. Run it from
# the repository root:
#
#   bash benchmark/run.sh --workload chip_batch --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh -sets 2 -o a.json
#   bash benchmark/run.sh compare a.json b.json
#
# Every build product, the Go build cache, ripd logs and span files go to
# .bench_build/ under the root, so a run writes nothing outside the
# checkout. The program builds ripd itself (see ripd.go).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root (benchmark/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$build/ripbench-e2e" .)
exec "$build/ripbench-e2e" "$@"
