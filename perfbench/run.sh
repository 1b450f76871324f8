#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run from and
# runs it; every argument is passed through. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload pingpong-8b --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10
#
# Build outputs, the Go build cache and traced runs' spans stay under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a checkout of the repository (its Go sources are missing here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOENV=off
if [ -z "${BENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export BENCH_COMMIT
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
