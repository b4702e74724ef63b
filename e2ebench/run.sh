#!/usr/bin/env bash
# Builds the end-to-end benchmark harness from source and runs it from the
# repository root. Every build artifact, cache and scratch file stays under
# .bench_build/ in the repository.
#
#   bash e2ebench/run.sh --workload sweep-small --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" "$@"
