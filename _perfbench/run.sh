#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash _perfbench/run.sh --workload engines --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary build files, the Go config directory
# (telemetry counters) and the binary all stay under .bench_build/ in
# the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f _perfbench/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod and _perfbench/go.mod needed)" >&2
	exit 1
fi
build="$PWD/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd _perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
