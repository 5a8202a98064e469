#!/bin/sh
# Concurrent-load smoke test, gated as `make load-smoke` and in CI.
#
# Two phases against a real `repro serve` process, both driven by the
# bench loadgen (`bench/main.exe -- --load`), which forks N client
# processes, byte-compares every successful response against the first
# one that client saw for the same request, and exits non-zero on any
# lost or mismatched response:
#
#   1. open admission: every request must be served — zero refusals,
#      zero lost, zero mismatched;
#   2. rate-limited admission (--rate-burst 2, effectively no refill):
#      each connection gets two heavy admits and typed `rate_limited`
#      refusals after that — refusals MUST appear, and responses must
#      still be complete and byte-stable.
#
# Knobs (also used by CI):
#   LOAD_SHARDS   N             --io-shards for the server (default 4)
#   LOAD_CLIENTS  N             concurrent client processes (default 8)
#   LOAD_REQUESTS M             requests per client (default 60)
set -eu

EXE=_build/default/bin/repro.exe
BENCH=_build/default/bench/main.exe
OUT=_build/load-smoke
STEP_TIMEOUT="${LOAD_SMOKE_TIMEOUT:-180}"
DRAIN_TIMEOUT="${LOAD_SMOKE_DRAIN:-30}"
SHARDS="${LOAD_SHARDS:-4}"
CLIENTS="${LOAD_CLIENTS:-8}"
REQUESTS="${LOAD_REQUESTS:-60}"

[ -x "$EXE" ] || { echo "load-smoke: $EXE not built (run dune build @all)" >&2; exit 1; }
[ -x "$BENCH" ] || { echo "load-smoke: $BENCH not built (run dune build @all)" >&2; exit 1; }
mkdir -p "$OUT"

SERVER_PID=""

diagnostics() {
    echo "load-smoke: ---- server.err (tail) ----" >&2
    tail -n 40 "$OUT/server.err" >&2 2>/dev/null || true
    echo "load-smoke: ---- loadgen.out ----" >&2
    cat "$OUT/loadgen.out" >&2 2>/dev/null || true
}

fail() {
    echo "load-smoke: $1" >&2
    diagnostics
    if [ -n "$SERVER_PID" ]; then kill -9 "$SERVER_PID" 2>/dev/null || true; fi
    exit 1
}

bounded() {
    if command -v timeout > /dev/null 2>&1; then
        timeout "$STEP_TIMEOUT" "$@"
    else
        "$@"
    fi
}

# run_phase <name> <expected-refusals: zero|some> [extra serve flags...]
run_phase() {
    PHASE="$1"; REFUSALS="$2"; shift 2
    SOCK="${TMPDIR:-/tmp}/repro-load-$$-$PHASE.sock"
    rm -f "$SOCK"
    "$EXE" serve --quick --socket "$SOCK" --jobs 2 \
        --io-shards "$SHARDS" "$@" \
        > "$OUT/server.out" 2> "$OUT/server.err" &
    SERVER_PID=$!

    # Readiness probe outside the measured load.
    bounded "$EXE" client --wait --socket "$SOCK" health > /dev/null \
      || fail "$PHASE: server did not come up"

    bounded "$BENCH" --load --socket "$SOCK" \
        --clients "$CLIENTS" --requests "$REQUESTS" > "$OUT/loadgen.out" \
      || fail "$PHASE: lost or mismatched responses under load"
    cat "$OUT/loadgen.out"

    case "$REFUSALS" in
        zero)
            grep -q "refused=0 " "$OUT/loadgen.out" \
              || fail "$PHASE: unexpected refusals with admission off" ;;
        some)
            grep -q "refused=0 " "$OUT/loadgen.out" \
              && fail "$PHASE: rate limiting produced no typed refusals" ;;
    esac

    bounded "$EXE" client --socket "$SOCK" shutdown > /dev/null \
      || fail "$PHASE: shutdown failed"
    waited=0
    while kill -0 "$SERVER_PID" 2>/dev/null; do
        if [ "$waited" -ge "$DRAIN_TIMEOUT" ]; then
            fail "$PHASE: server still running ${DRAIN_TIMEOUT}s after shutdown"
        fi
        sleep 1
        waited=$((waited + 1))
    done
    wait "$SERVER_PID" || fail "$PHASE: server exited non-zero"
    SERVER_PID=""
    rm -f "$SOCK"
}

trap 'if [ -n "$SERVER_PID" ]; then kill "$SERVER_PID" 2>/dev/null || true; fi' EXIT

run_phase open zero
run_phase limited some --rate-burst 2 --rate-every 1000000

echo "load-smoke: ${CLIENTS}x${REQUESTS} clean under open and rate-limited admission (shards=$SHARDS)"
