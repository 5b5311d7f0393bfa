#!/bin/sh
# cloudd_gate.sh — the cloud-boundary acceptance gate (the CI cloudd
# job). Builds the daemon and the CLIs, starts whowas-cloudd, runs the
# same seeded campaign over the wire and in-process, and hard-fails
# unless the two store digests are byte-identical — and unless the
# daemon's own counters show the wire campaign paid for verdicts with
# frames, not connections (no timing involved: it holds on any host).
set -eu

ADDR="${CLOUDD_ADDR:-127.0.0.1:8390}"
SCALE="${CLOUDD_SCALE:-4096}"
SEED="${CLOUDD_SEED:-7}"
ROUNDS="${CLOUDD_ROUNDS:-3}"

echo "== building binaries"
go build -o bin/whowas ./cmd/whowas
go build -o bin/whowas-cloudd ./cmd/whowas-cloudd
go build -o bin/whowas-query ./cmd/whowas-query

echo "== starting whowas-cloudd on $ADDR (scale $SCALE, seed $SEED)"
bin/whowas-cloudd -cloud ec2 -scale "$SCALE" -seed "$SEED" \
    -addr "$ADDR" -data-listeners 4 &
CLOUDD=$!
trap 'kill "$CLOUDD" 2>/dev/null || true' EXIT INT TERM

echo "== waiting for daemon health"
i=0
until bin/whowas-query cloud -addr "$ADDR" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "cloudd_gate: daemon never became healthy" >&2
        exit 1
    fi
    sleep 0.2
done
bin/whowas-query cloud -addr "$ADDR"

echo "== wire campaign (via $ADDR)"
bin/whowas -cloud-addr "$ADDR" -rounds "$ROUNDS" \
    -cluster=false -carto=false -q | tee wire.out

# The wire's shape, from the daemon's /metrics/prom: at most one
# data-plane connection per four dials (a probe channel per listener
# plus one tunnel per connection actually used; connection-per-probe
# would read 1:1), and nothing left parked once the client is gone.
echo "== daemon data plane after the wire campaign"
prom() {
    bin/whowas-query fleet -prom "$ADDR" | awk -v m="whowas_cloudd_$1" '$1 == m { print $2 }'
}
DIALS=$(prom dials_total)
ACCEPTS=$(prom data_accepts_total)
i=0
until [ "$(prom parked_conns)" = 0 ]; do
    i=$((i + 1))
    if [ "$i" -ge 25 ]; then
        echo "cloudd_gate: cloudd.parked_conns = $(prom parked_conns) after the campaign, want 0" >&2
        exit 1
    fi
    sleep 0.2
done
echo "cloudd.dials=$DIALS cloudd.data_accepts=$ACCEPTS cloudd.attaches=$(prom attaches_total) cloudd.verdict_flushes=$(prom verdict_flushes_total) cloudd.parked_conns=0"
if [ -z "$DIALS" ] || [ -z "$ACCEPTS" ] || [ "$DIALS" -le 0 ] || [ $((ACCEPTS * 4)) -gt "$DIALS" ]; then
    echo "cloudd_gate: cloudd.data_accepts=$ACCEPTS for cloudd.dials=$DIALS, want at most a quarter: verdicts are costing connections" >&2
    exit 1
fi

echo "== in-process campaign (same cloud, same seed)"
bin/whowas -cloud ec2 -scale "$SCALE" -seed "$SEED" -rounds "$ROUNDS" \
    -cluster=false -carto=false -q | tee local.out

WIRE=$(sed -n 's/^store digest: //p' wire.out)
LOCAL=$(sed -n 's/^store digest: //p' local.out)
if [ -z "$WIRE" ] || [ -z "$LOCAL" ]; then
    echo "cloudd_gate: missing store digest in campaign output" >&2
    exit 1
fi
if [ "$WIRE" != "$LOCAL" ]; then
    echo "cloudd_gate: DIGEST MISMATCH: wire=$WIRE local=$LOCAL" >&2
    exit 1
fi
echo "== digest identity holds: $WIRE"
