#!/usr/bin/env bash
# Builds affinityd and the benchmark from this checkout, then runs one
# benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload compare-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/affinityd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/affinityd and perfbench/ must exist)" >&2
	exit 2
fi
# Fall back to the official Go distribution's default install location.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off

go build -o "$out/affinityd" ./cmd/affinityd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -affinityd "$out/affinityd" -out "$out" "$@"
