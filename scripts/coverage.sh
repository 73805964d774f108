#!/usr/bin/env bash
# coverage.sh — statement-coverage floors for the measured-path packages.
#
# Each floor is the package's coverage when its gate landed, so new
# surface area must arrive with tests; raise a floor (never lower it)
# when coverage durably improves:
#
#   internal/rpc       88.6%  (batching/fuzz/soak PR)
#   internal/topology  80.0%  (multi-tier topology PR; measured 91.7%,
#                              floored lower because the non-short
#                              measured-vs-model test exercises a chunk
#                              of runner.go only on full runs)
#   internal/kernels   90.0%  (async serving-path PR; measured 96.0%
#                              with the SimAccel error-path tests)
#   internal/record    90.9%  (one-replay-stack PR: record.ReplayArm is
#                              the RPC replay path cmd/accelerometer and
#                              cmd/abtest share)
#
# Usage: scripts/coverage.sh
#        RPC_COVER_MIN=90 TOPOLOGY_COVER_MIN=85 KERNELS_COVER_MIN=92 RECORD_COVER_MIN=91 scripts/coverage.sh
set -euo pipefail
cd "$(dirname "$0")/.."

gate() {
    local pkg="$1" floor="$2"
    local out pct
    out="$(go test -count=1 -cover "./$pkg/")"
    echo "$out"
    pct="$(echo "$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')"
    if [ -z "$pct" ]; then
        echo "FATAL: could not parse coverage percentage for $pkg" >&2
        exit 1
    fi
    awk -v pkg="$pkg" -v pct="$pct" -v floor="$floor" 'BEGIN {
        if (pct + 0 < floor + 0) {
            printf "FATAL: %s coverage %.1f%% below the %.1f%% floor\n", pkg, pct, floor > "/dev/stderr"
            exit 1
        }
        printf "%s coverage %.1f%% >= %.1f%% floor\n", pkg, pct, floor
    }'
}

gate internal/rpc "${RPC_COVER_MIN:-88.6}"
gate internal/topology "${TOPOLOGY_COVER_MIN:-80}"
gate internal/kernels "${KERNELS_COVER_MIN:-90}"
gate internal/record "${RECORD_COVER_MIN:-90.9}"
