#!/bin/sh
# bench_gate.sh — run the repository's benchmark (bench/, which fails on
# its own when a digest or answer check does) and hold its counts to
# bench/baseline.json on every workload: no failed operation,
# bytes_per_record not above the baseline, allocs_per_record not more
# than 1 % above it (or 0.01 allocs: store-mixed's amortised set-up
# moves a few percent with the op mix a timed run fits). Both legs are
# one-sided: a fall passes and prints "bench_gate: baseline stale: ..."
# so the [benchmark] change that re-records bench/baseline.json shows up
# in the log — a change that claims a gain may not edit bench/ itself.
# The one exception is campaign-local's bytes_per_record, the gob bytes
# of the memory store: no storage format sits under it, so it must
# match exactly. Wall times vary by host, so none is gated.
set -eu
cd "$(dirname "$0")/.."
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
bash bench/run.sh --seed 1 --out "$OUT"
python3 - "$OUT" bench/baseline.json <<'PY'
import json, sys
load = lambda p: {w["workload"]: w for w in json.load(open(p))["workloads"]}
fresh, base = load(sys.argv[1]), load(sys.argv[2])
bad = ["workload %s missing" % n for n in base.keys() - fresh.keys()]
for name in sorted(fresh.keys() & base.keys()):
    value = lambda side, metric: side[name]["metrics"][metric]["value"]
    if fresh[name]["failed"]:
        bad.append("%s: %d of %d operations failed" % (name, fresh[name]["failed"], fresh[name]["attempted"]))
    got, want = value(fresh, "bytes_per_record"), value(base, "bytes_per_record")
    if got - want > 1e-9 * want:
        bad.append("%s: bytes_per_record %r, above baseline %r" % (name, got, want))
    elif want - got > 1e-9 * want and name == "campaign-local":
        bad.append("%s: bytes_per_record %r, baseline %r (gob bytes must match exactly)" % (name, got, want))
    elif want - got > 1e-9 * want:
        print("bench_gate: baseline stale: %s bytes_per_record fell %.1f %% (%.4f, baseline %.4f)"
              % (name, 100 * (want - got) / want, got, want))
    got, want = value(fresh, "allocs_per_record"), value(base, "allocs_per_record")
    slack = max(0.01 * want, 0.01)
    if got - want > slack:
        bad.append("%s: allocs_per_record %.4f, baseline %.4f (> 1%% above)" % (name, got, want))
    elif want - got > slack:
        print("bench_gate: baseline stale: %s allocs_per_record fell %.1f %% (%.4f, baseline %.4f)"
              % (name, 100 * (want - got) / want, got, want))
print("\n".join("bench_gate: " + b for b in bad) or "bench_gate: PASS")
sys.exit(1 if bad else 0)
PY
