#!/usr/bin/env bash
# Builds trusthmdd and the benchmark from the tree in the current
# directory (the repository root), then runs one benchmark invocation.
# Everything the build and the run write stays under .bench_build/.
#
#   bash perfbench/run.sh --workload assess-single --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/trusthmdd || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/trusthmdd and perfbench/ are needed)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off

go build -o "$out/bin/trusthmdd" ./cmd/trusthmdd >&2
go build -o "$out/bin/perfbench" ./perfbench >&2
exec "$out/bin/perfbench" -bin "$out/bin/trusthmdd" -work "$out/work" "$@"
