#!/bin/sh
# bench_gate.sh — hold a fresh store-engine benchmark run to the
# committed baseline (BENCH_store.json).
#
# The gate is two-layered:
#   - exact: the fresh run's store digests, record count and on-disk
#     byte counts must equal the committed baseline's — both encodings
#     are deterministic, so any drift means the code changed what it
#     produces, not how fast;
#   - tolerant: write-path latency must be within BENCH_TOLERANCE
#     (default 0.35, i.e. 35%) of the baseline's — wide because runner
#     hardware varies far more than code does.
#
# Regenerate the baseline intentionally with:
#   make store-bench
#
# Environment:
#   BENCH_TOLERANCE  fractional write-path regression allowed
set -eu

cd "$(dirname "$0")/.."

STORE_BASELINE=${STORE_BASELINE:-BENCH_store.json}
TOL=${BENCH_TOLERANCE:-0.35}

[ -f "$STORE_BASELINE" ] || { echo "bench_gate: baseline $STORE_BASELINE missing (run make store-bench and commit it)" >&2; exit 1; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "bench_gate: fresh store run vs $STORE_BASELINE (tolerance $TOL)"
go run ./cmd/whowas-bench \
    -store-bench "$WORK/fresh_store.json" \
    -store-baseline "$STORE_BASELINE" \
    -store-tolerance "$TOL"

echo "bench_gate: PASS"
