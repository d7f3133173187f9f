#!/usr/bin/env bash
# Builds gcbench from this checkout and runs it with the given arguments:
#
#   bash gcbench/run.sh --workload fanout-mem --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and tool configuration all live under
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it. A checkout without the GroupCast module next to this
# directory fails to build, and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOENV=off GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/gcbench" && go build -o "$out/gcbench" .)
exec "$out/gcbench" "$@"
