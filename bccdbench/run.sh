#!/usr/bin/env bash
# Builds cmd/bccd and the load generator from the checkout it is run in,
# then runs one benchmark pass. Run from the repository root:
#
#   bash bccdbench/run.sh --workload hot --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write lands under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bccd || ! -f bccdbench/go.mod ]]; then
	echo "bccdbench: run from the root of a bicc checkout (cmd/bccd and bccdbench/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/results"
# The go command's caches, temp files and local telemetry all stay inside
# the checkout.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/bccd" ./cmd/bccd >&2
(cd bccdbench && go build -o "$out/bin/bccdbench" .) >&2

exec "$out/bin/bccdbench" -bccd "$out/bin/bccd" -out "$out/results" "$@"
