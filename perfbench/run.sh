#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload estimate-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# repository root (Go build cache, module cache, telemetry and config
# directories, the binary, the run's corpora). Build output goes to
# stderr, so the run's last stdout line is its JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off CGO_ENABLED=0
go -C perfbench build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
