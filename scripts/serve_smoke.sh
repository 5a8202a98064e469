#!/bin/sh
# End-to-end serving smoke test, gated in `make check` and CI.
#
# Starts `repro serve` on a temp Unix socket, runs a client analyze +
# stats + graceful shutdown against it, and `cmp`s the served analyze
# response against the offline `repro analyze` output for the same
# configuration — the byte-equality guarantee DESIGN.md §11 argues for.
# The HTTP operational endpoint rides along: the server runs with
# --metrics-port 0, GET /metrics must pass scripts/check_metrics.sh,
# GET /health must answer 200 and unknown paths 404; curl is required.
#
# Uses the built binary directly (not `dune exec`) so the background
# server and the foreground client don't fight over the dune lock.
#
# Every step is bounded: client calls run under `timeout` (when the
# platform has it) and the final server drain is a polled wait, so a
# wedged server fails the smoke with diagnostics instead of hanging CI
# until the job-level kill.
#
# SERVE_SHARDS (N) sets the IO shard count — CI also runs this smoke at
# 4 shards; byte-equality against the offline CLI must hold at every
# count.
set -eu

EXE=_build/default/bin/repro.exe
OUT=_build/serve-smoke
SOCK="${TMPDIR:-/tmp}/repro-smoke-$$.sock"
STEP_TIMEOUT="${SERVE_SMOKE_TIMEOUT:-120}"   # seconds per client step
DRAIN_TIMEOUT="${SERVE_SMOKE_DRAIN:-30}"     # seconds for server exit after shutdown
SHARDS="${SERVE_SHARDS:-1}"

[ -x "$EXE" ] || { echo "serve-smoke: $EXE not built (run dune build @all)" >&2; exit 1; }
command -v curl > /dev/null 2>&1 || { echo "serve-smoke: curl is required" >&2; exit 1; }
mkdir -p "$OUT"
rm -f "$SOCK"

# Dump what the server said before failing — a hung or crashed server is
# useless to debug from "cmp: EOF".
diagnostics() {
    echo "serve-smoke: ---- server.out (tail) ----" >&2
    tail -n 40 "$OUT/server.out" >&2 2>/dev/null || true
    echo "serve-smoke: ---- server.err (tail) ----" >&2
    tail -n 40 "$OUT/server.err" >&2 2>/dev/null || true
}

fail() {
    echo "serve-smoke: $1" >&2
    diagnostics
    kill -9 "$SERVER_PID" 2>/dev/null || true
    exit 1
}

# Run a client step under a bounded wall clock.  `timeout` is in
# coreutils and busybox; if some exotic host lacks it, run unbounded
# rather than skip the step.
bounded() {
    if command -v timeout > /dev/null 2>&1; then
        timeout "$STEP_TIMEOUT" "$@"
    else
        "$@"
    fi
}

"$EXE" serve --quick --socket "$SOCK" --jobs 2 --io-shards "$SHARDS" \
    --metrics-port 0 \
    > "$OUT/server.out" 2> "$OUT/server.err" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$SOCK"' EXIT

# --wait retries while the server is still binding the socket.
bounded "$EXE" client --wait --socket "$SOCK" analyze gcc > "$OUT/served-analyze.out" \
  || fail "client analyze failed or timed out (${STEP_TIMEOUT}s)"
bounded "$EXE" client --socket "$SOCK" stats > "$OUT/stats.out" \
  || fail "client stats failed or timed out (${STEP_TIMEOUT}s)"
grep -q "requests.total" "$OUT/stats.out" \
  || fail "stats response missing requests.total"

# Operational endpoint: /metrics must pass the exposition lint,
# /health must answer 200 while serving, unknown paths 404.
MPORT=$(sed -n 's|.*metrics listening on http://127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' \
    "$OUT/server.err")
[ -n "$MPORT" ] || fail "no 'metrics listening' line on server stderr"
curl -s "http://127.0.0.1:$MPORT/metrics" > "$OUT/metrics.txt" \
  || fail "GET /metrics failed"
sh scripts/check_metrics.sh "$OUT/metrics.txt" \
  || fail "/metrics fails the exposition lint"
grep -q '^repro_requests_total ' "$OUT/metrics.txt" \
  || fail "/metrics missing repro_requests_total"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$MPORT/health" || true)
[ "$code" = "200" ] || fail "/health returned $code while serving (want 200)"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$MPORT/nope" || true)
[ "$code" = "404" ] || fail "unknown path returned $code (want 404)"

# Graceful shutdown: the server must drain and exit 0 on its own within
# the drain budget.  Poll instead of a bare `wait` so a wedged drain
# cannot hang the smoke.
bounded "$EXE" client --socket "$SOCK" shutdown > /dev/null \
  || fail "client shutdown failed or timed out (${STEP_TIMEOUT}s)"
waited=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
    if [ "$waited" -ge "$DRAIN_TIMEOUT" ]; then
        fail "server still running ${DRAIN_TIMEOUT}s after shutdown request"
    fi
    sleep 1
    waited=$((waited + 1))
done
wait "$SERVER_PID" || fail "server exited non-zero"
trap 'rm -f "$SOCK"' EXIT

# The served report must be byte-identical to the offline CLI at the
# same analysis configuration (jobs is excluded from the cache key and
# must not affect output).
JOBS=1 "$EXE" analyze --quick gcc > "$OUT/offline-analyze.out"
cmp "$OUT/served-analyze.out" "$OUT/offline-analyze.out" \
  || fail "served analyze differs from offline analyze"

echo "serve-smoke: served analyze byte-identical to offline analyze"
