#!/usr/bin/env bash
# Builds servebench from source and runs it with the given arguments:
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a checkout. The build cache, the temporary build
# files and the binary all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go build -C servebench -o "$out/servebench" .
exec "$out/servebench" "$@"
