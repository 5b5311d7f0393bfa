#!/bin/sh
# coord_gate.sh — the distributed-campaign acceptance gate (the CI
# coord job). Builds the daemon and the CLIs, starts whowas-cloudd,
# measures the cloud once single-process, then with whowas-coordinator
# fleets of 1, 2 and 4 workers — the 4-worker run SIGKILLs one worker
# mid-campaign — and hard-fails unless every store digest is
# byte-identical to the single-process run.
#
# Each fleet run also drives the observability surface while the
# campaign is live: `whowas-query fleet` must show worker rows, the
# Prometheus exposition must carry worker labels, the status history
# must record the SIGKILLed worker's expired lease, and the merged
# -trace-journal must attribute shard spans to worker identities.
set -eu

ADDR="${COORD_CLOUDD_ADDR:-127.0.0.1:8396}"
CADDR="${COORD_ADDR:-127.0.0.1:8397}"
SCALE="${COORD_SCALE:-4096}"
SEED="${COORD_SEED:-7}"
# Twelve rounds: the SIGKILL leg needs a campaign still running ~4 s
# after its workers start (2 s before the kill, a 1 s lease, the reap),
# and over the probe-channel wire a three-round fleet campaign of this
# cloud is done sooner than that.
ROUNDS="${COORD_ROUNDS:-12}"
TTL="${COORD_LEASE_TTL:-1s}"

# Binaries and logs live in a scratch dir so the gate never litters
# the repository checkout.
WORK=$(mktemp -d "${TMPDIR:-/tmp}/coord_gate.XXXXXX")

echo "== building binaries"
go build -o "$WORK/bin/whowas" ./cmd/whowas
go build -o "$WORK/bin/whowas-cloudd" ./cmd/whowas-cloudd
go build -o "$WORK/bin/whowas-coordinator" ./cmd/whowas-coordinator
go build -o "$WORK/bin/whowas-query" ./cmd/whowas-query

PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== starting whowas-cloudd on $ADDR (scale $SCALE, seed $SEED)"
"$WORK"/bin/whowas-cloudd -cloud ec2 -scale "$SCALE" -seed "$SEED" \
    -addr "$ADDR" -data-listeners 4 &
PIDS="$PIDS $!"

echo "== waiting for daemon health"
i=0
until "$WORK"/bin/whowas-query cloud -addr "$ADDR" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "coord_gate: cloudd never became healthy" >&2
        exit 1
    fi
    sleep 0.2
done

echo "== single-process campaign (the reference digest)"
"$WORK"/bin/whowas -cloud-addr "$ADDR" -rounds "$ROUNDS" \
    -cluster=false -carto=false -q | tee "$WORK"/single.out
BASE=$(sed -n 's/^store digest: //p' "$WORK"/single.out)
if [ -z "$BASE" ]; then
    echo "coord_gate: missing store digest in single-process output" >&2
    exit 1
fi

# poll_fleet PATTERN — one-shot the live dashboard against the running
# coordinator until it shows PATTERN (worker rows and history events
# appear as heartbeats and submissions arrive).
poll_fleet() {
    pat="$1"
    i=0
    until "$WORK"/bin/whowas-query fleet -history 64 "$CADDR" 2>/dev/null \
            | grep -q "$pat"; do
        i=$((i + 1))
        if [ "$i" -ge 150 ]; then
            echo "coord_gate: fleet dashboard never showed '$pat'" >&2
            "$WORK"/bin/whowas-query fleet -history 64 "$CADDR" >&2 || true
            exit 1
        fi
        sleep 0.2
    done
    echo "== fleet dashboard shows '$pat'"
}

# run_fleet WORKERS KILL_ONE — one distributed campaign; prints the
# coordinator's digest into the scratch dir's coord.out.
run_fleet() {
    workers="$1"
    kill_one="$2"
    echo "== coordinator campaign: $workers worker(s), kill_one=$kill_one"
    : >"$WORK"/coord.out
    JOURNAL="$WORK/journal-$workers-$kill_one.jsonl"
    "$WORK"/bin/whowas-coordinator -cloud-addr "$ADDR" -addr "$CADDR" \
        -rounds "$ROUNDS" -lease-ttl "$TTL" -q \
        -trace-journal "$JOURNAL" >"$WORK"/coord.out 2>&1 &
    COORD=$!
    PIDS="$PIDS $COORD"
    i=0
    until grep -q "coordinator listening" "$WORK"/coord.out; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "coord_gate: coordinator never started" >&2
            cat "$WORK"/coord.out >&2
            exit 1
        fi
        sleep 0.2
    done
    WPIDS=""
    i=0
    while [ "$i" -lt "$workers" ]; do
        "$WORK"/bin/whowas -worker -coordinator-addr "$CADDR" \
            -worker-id "gate-w$i" >"$WORK/worker$i.out" 2>&1 &
        WPIDS="$WPIDS $!"
        PIDS="$PIDS $!"
        i=$((i + 1))
    done
    # The live dashboard must show a labeled worker row once the
    # first heartbeat or shard submission lands, and the Prometheus
    # exposition must carry the same worker label.
    poll_fleet "gate-w"
    i=0
    until "$WORK"/bin/whowas-query fleet -prom "$CADDR" 2>/dev/null \
            | grep -q 'worker="gate-w'; do
        i=$((i + 1))
        if [ "$i" -ge 150 ]; then
            echo "coord_gate: /metrics/prom never showed a worker label" >&2
            exit 1
        fi
        sleep 0.2
    done
    echo "== /metrics/prom carries worker labels"
    if [ "$kill_one" = 1 ]; then
        # Give the victim time to lease a budget slice and start a
        # shard, then kill it without ceremony: no submit, no goodbye.
        # Lease expiry must hand its shard to the survivors.
        sleep 2
        VICTIM=$(echo "$WPIDS" | awk '{print $1}')
        kill -9 "$VICTIM" 2>/dev/null || true
        echo "== SIGKILLed worker pid $VICTIM mid-campaign"
        # The death must surface in the status history while the
        # campaign is still running: an expired lease, its shards
        # re-queued for the survivors.
        poll_fleet "lease_expired"
    fi
    if ! wait "$COORD"; then
        echo "coord_gate: coordinator failed" >&2
        cat "$WORK"/coord.out >&2
        exit 1
    fi
    for pid in $WPIDS; do
        wait "$pid" 2>/dev/null || true
    done
    cat "$WORK"/coord.out
    DIGEST=$(sed -n 's/^store digest: //p' "$WORK"/coord.out)
    if [ -z "$DIGEST" ]; then
        echo "coord_gate: missing store digest in coordinator output" >&2
        exit 1
    fi
    if [ "$DIGEST" != "$BASE" ]; then
        echo "coord_gate: DIGEST MISMATCH ($workers workers, kill_one=$kill_one): fleet=$DIGEST single=$BASE" >&2
        exit 1
    fi
    # The merged journal must reconstruct the campaign with shard
    # spans attributed to the workers that ran them.
    if ! "$WORK"/bin/whowas-query trace -journal "$JOURNAL" -slowest 8 \
            | grep -q "worker=gate-w"; then
        echo "coord_gate: journal $JOURNAL has no worker-attributed spans" >&2
        "$WORK"/bin/whowas-query trace -journal "$JOURNAL" -slowest 8 >&2 || true
        exit 1
    fi
    echo "== journal attributes shard spans to workers"
}

run_fleet 1 0
run_fleet 2 0
run_fleet 4 1

echo "== digest identity holds across 1/2/4-worker fleets (+worker kill): $BASE"
