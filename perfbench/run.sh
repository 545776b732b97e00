#!/usr/bin/env bash
# Builds the benchmark and the compaqt-serve binary it drives from the
# source tree in the current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload recalibrate --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build caches, binaries and the
# run's scratch stores all live under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
(
	cd "$here"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/compaqt-serve" compaqt/cmd/compaqt-serve
) >&2
exec "$out/bin/perfbench" -serve "$out/bin/compaqt-serve" -work "$out/runs" "$@"
