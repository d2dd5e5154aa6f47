#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload ler-sweep --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache, its temporary files and the go command's
# own telemetry counters stay in .bench_build/ under the working directory;
# the first build compiles the standard library into that cache.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$(dirname "$0")"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
