#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in, then runs it
# with the given arguments, for example
#
#   bash bench/run.sh --workload serve-dpd --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ at the root of the checkout. The build fails, and the
# script exits non-zero without running anything, when the checkout lacks
# the module the benchmark measures.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/bench" build -o "$out/mpibench" .
exec "$out/mpibench" "$@"
