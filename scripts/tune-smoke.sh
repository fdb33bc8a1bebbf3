#!/usr/bin/env sh
# tune-smoke: end-to-end smoke test of the traffic-adaptive kernel autotuner.
#
# Builds shalom-serve (race-enabled), shalom-load, shalom-top, and
# shalom-journal, starts the server with -autotune and a deliberately
# detuned f32/small serving tile, storms it until the attribution feed
# flags the class, and requires the closed loop to run to promotion:
#   - /tune: the small class reaches state "promoted" with a tuned-* kernel,
#   - /metrics: the promoted event counter and the per-class state gauge,
#   - shalom-top -tune: the autotuner view shows the promoted class,
#   - shalom-load: median throughput of three small-mix runs after
#     promotion beats the median of three on a detuned server without the
#     loop,
#   - the journal carries a verifiable tune-promote record,
#   - the server log carries the detune seed, the promotion, and a clean
#     drain with the autotune summary line.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/shalom-tune-smoke.XXXXXX")
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

echo "tune-smoke: building race-enabled binaries"
$GO build -race -o "$TMP/shalom-serve" ./cmd/shalom-serve
$GO build -o "$TMP/shalom-load" ./cmd/shalom-load
$GO build -o "$TMP/shalom-top" ./cmd/shalom-top
$GO build -o "$TMP/shalom-journal" ./cmd/shalom-journal

# start_server LOG FLAG...: a race-enabled shalom-serve with f32/small
# seeded with the detuned 1x4 tile and short attribution windows; waits
# for it to bind and sets SERVE_PID and ADDR.
start_server() {
    log=$1
    shift
    rm -f "$TMP/addr"
    "$TMP/shalom-serve" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -window 5ms \
        -attrib-window 150ms -attrib-windows 2 -attrib-min-calls 4 \
        -detune-class small "$@" >"$TMP/$log" 2>&1 &
    SERVE_PID=$!
    i=0
    while [ ! -s "$TMP/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "tune-smoke: FAIL: server never bound an address" >&2
            cat "$TMP/$log" >&2
            exit 1
        fi
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "tune-smoke: FAIL: server exited before binding" >&2
            cat "$TMP/$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR=$(cat "$TMP/addr")
    if ! grep -q "DETUNE seeded f32/small" "$TMP/$log"; then
        echo "tune-smoke: FAIL: server log has no detune seed line" >&2
        cat "$TMP/$log" >&2
        exit 1
    fi
}

# small_mix_gflops NAME: the median GFLOPS of three small-mix load runs.
# One run spreads wider than the promotion's gain, so each side of the
# before/after comparison takes the middle of three.
small_mix_gflops() {
    for i in 1 2 3; do
        "$TMP/shalom-load" -addr "$ADDR" -n 300 -c 8 -mix small \
            -json "$TMP/$1-$i.json" >>"$TMP/load.log" 2>&1 || return 1
        grep -o '"gflops": [0-9.]*' "$TMP/$1-$i.json" | head -1 | grep -o '[0-9.]*$' >>"$TMP/$1.gflops"
    done
    sort -n "$TMP/$1.gflops" | sed -n 2p
}

# Baseline: measured throughput of the small mix while the detuned tile
# serves the class, on a server configured like the one below but without
# the tuning loop — with it, the loop promotes a better tile during the
# baseline runs themselves.
start_server baseline.log -journal "$TMP/baseline-journal"
echo "tune-smoke: baseline server up on $ADDR (f32/small seeded with detuned 1x4 tile)"
BEFORE=$(small_mix_gflops before)
if [ -z "$BEFORE" ]; then
    echo "tune-smoke: FAIL: baseline small-mix load runs failed" >&2
    cat "$TMP/load.log" >&2
    exit 1
fi
echo "tune-smoke: detuned baseline ${BEFORE} GFLOPS on the small mix (median of 3)"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
SERVE_PID=""

# Short attribution windows and a fast tuning period so the loop converges
# in seconds; the detuned 1x4 tile collapses the small class's measured
# GFLOPS while the other classes anchor the calibration, so the feed ranks
# f32/small as the top tuning candidate.
start_server serve.log -autotune -autotune-interval 250ms -autotune-min-score 0.001 \
    -journal "$TMP/journal"
echo "tune-smoke: server up on $ADDR with the tuning loop (f32/small seeded with detuned 1x4 tile)"

# Storm until the closed loop runs search -> prove -> canary -> promote,
# bounded so a stuck loop fails rather than hangs. The mixed traffic keeps
# the calibration anchored while the small-class calls both feed the
# attribution score and settle the canary.
PROMOTED=0
round=0
while [ "$round" -lt 15 ]; do
    round=$((round + 1))
    "$TMP/shalom-load" -addr "$ADDR" -n 400 -c 16 -mix mixed >>"$TMP/load.log" 2>&1
    sleep 0.5 # let attribution windows close and the tuning loop tick
    fetch "http://$ADDR/tune" >"$TMP/tune.json"
    if grep -q '"state": "promoted"' "$TMP/tune.json"; then
        PROMOTED=1
        break
    fi
done
if [ "$PROMOTED" -ne 1 ]; then
    echo "tune-smoke: FAIL: no promotion after $round storms" >&2
    cat "$TMP/tune.json" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
echo "tune-smoke: promotion after $round storm(s)"

# /tune names the tuned candidate and the incumbent it displaced.
for want in '"shape_class": "small"' '"kernel": "tuned-' '"incumbent_kernel": "detuned-1x4"'; do
    if ! grep -q "$want" "$TMP/tune.json"; then
        echo "tune-smoke: FAIL: /tune missing $want" >&2
        cat "$TMP/tune.json" >&2
        exit 1
    fi
done
echo "tune-smoke: /tune shows the promoted tuned kernel over the detuned incumbent"

fetch "http://$ADDR/metrics" >"$TMP/metrics.txt"
for want in \
    'libshalom_autotune_events_total{event="promoted"}' \
    'libshalom_autotune_events_total{event="proved"}' \
    'libshalom_autotune_events_total{event="canary"}' \
    'libshalom_autotune_class_state{precision="f32",shape_class="small",state="promoted"}' \
    'libshalom_autotune_overrides' \
    'libshalom_autotune_class_candidate_gflops{'; do
    if ! grep -Fq "$want" "$TMP/metrics.txt"; then
        echo "tune-smoke: FAIL: /metrics missing $want" >&2
        exit 1
    fi
done
echo "tune-smoke: /metrics carries the autotune counters and class-state gauges"

"$TMP/shalom-top" -tune "http://$ADDR" >"$TMP/top.txt"
if ! grep -q "promoted" "$TMP/top.txt" || ! grep -q "tuned-" "$TMP/top.txt"; then
    echo "tune-smoke: FAIL: shalom-top tune view does not show the promoted class" >&2
    cat "$TMP/top.txt" >&2
    exit 1
fi
echo "tune-smoke: shalom-top tune view shows the promoted class"

# The promoted tile serves measurably faster than the detuned baseline.
AFTER=$(small_mix_gflops after)
if [ -z "$AFTER" ]; then
    echo "tune-smoke: FAIL: promoted small-mix load runs failed" >&2
    cat "$TMP/load.log" >&2
    exit 1
fi
echo "tune-smoke: promoted throughput ${AFTER} GFLOPS on the small mix, median of 3 (was ${BEFORE})"
if ! awk "BEGIN{exit !($AFTER > $BEFORE)}"; then
    echo "tune-smoke: FAIL: promotion did not raise small-mix throughput ($BEFORE -> $AFTER GFLOPS)" >&2
    exit 1
fi

echo "tune-smoke: SIGTERM — expecting a clean drain"
kill -TERM "$SERVE_PID"
STATUS=0
wait "$SERVE_PID" || STATUS=$?
SERVE_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "tune-smoke: FAIL: server exited $STATUS after SIGTERM" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
if ! grep -q "shalom-serve: autotune —" "$TMP/serve.log"; then
    echo "tune-smoke: FAIL: server log has no autotune summary" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
if grep "shalom-serve: autotune —" "$TMP/serve.log" | grep -q "promoted 0"; then
    echo "tune-smoke: FAIL: autotune summary reports no promotion" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi

# The journal verifies end to end and carries the promotion record.
if ! "$TMP/shalom-journal" verify "$TMP/journal" >>"$TMP/journal.log" 2>&1; then
    echo "tune-smoke: FAIL: journal does not verify" >&2
    cat "$TMP/journal.log" >&2
    exit 1
fi
"$TMP/shalom-journal" dump "$TMP/journal" >"$TMP/dump.txt"
if ! grep -q "tune-promote" "$TMP/dump.txt"; then
    echo "tune-smoke: FAIL: journal has no tune-promote record" >&2
    grep -v admit "$TMP/dump.txt" | tail -20 >&2
    exit 1
fi
echo "tune-smoke: journal verifies and carries the tune-promote record"
echo "tune-smoke: PASS"
