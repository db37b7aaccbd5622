#!/usr/bin/env bash
# Builds the benchmark and galsim-fleet from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload paper-eval --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/galsim-fleet || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the root of a galsim checkout" >&2
	exit 2
fi
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd benchmark && go build -o "$out/galsim-benchmark" .)
go build -o "$out/galsim-fleet" ./cmd/galsim-fleet
exec "$out/galsim-benchmark" --fleet "$out/galsim-fleet" "$@"
