#!/bin/sh
# Soak test against the operational surface, gated as `make soak-smoke`
# and in the CI soak job; the nightly workflow reruns it with bigger
# knobs.
#
# Starts `repro serve` with the HTTP metrics endpoint on an OS-assigned
# port, then:
#
#   1. scrapes GET /metrics before and after a paced load run and lints
#      both scrapes with scripts/check_metrics.sh;
#   2. drives N forked clients at a target RPS for a target duration
#      (`bench/main.exe -- --soak`), which fails on any lost or
#      mismatched response;
#   3. cross-checks the scrape against the load: the requests_total
#      delta must equal the requests sent, and at quiescence
#      requests_total == responses_ok + sum(responses_error) — the
#      endpoint and the wire protocol must tell the same story;
#   4. holds soak p99 latency to a machine-normalised budget from the
#      committed BENCH_soak.json baseline (the calibration loop that
#      scripts/bench_gate.sh uses, timed once per soak run);
#   5. checks /health readiness: 200 while serving, 503 during the
#      graceful drain that follows a shutdown with queued work.
#
# SOAK_WRITE_BASELINE=1 refreshes BENCH_soak.json from the fresh run
# instead of gating against it (`make soak-baseline`).
#
# Knobs (also used by the nightly workflow):
#   SOAK_SHARDS    N             --io-shards for the server (default 1)
#   SOAK_CLIENTS   N             concurrent client processes (default 4)
#   SOAK_RPS       R             target requests/sec across clients (default 150)
#   SOAK_DURATION  S             seconds at target rate (default 4)
#   SOAK_P99_TOL   X             normalised p99 budget multiplier (default 4.0)
set -eu

EXE=_build/default/bin/repro.exe
BENCH=_build/default/bench/main.exe
OUT=_build/soak
BASELINE=BENCH_soak.json
SOCK="${TMPDIR:-/tmp}/repro-soak-$$.sock"
STEP_TIMEOUT="${SOAK_TIMEOUT:-180}"
DRAIN_TIMEOUT="${SOAK_DRAIN:-30}"
SHARDS="${SOAK_SHARDS:-1}"
CLIENTS="${SOAK_CLIENTS:-4}"
RPS="${SOAK_RPS:-150}"
DURATION="${SOAK_DURATION:-4}"
TOL="${SOAK_P99_TOL:-4.0}"

[ -x "$EXE" ] || { echo "soak: $EXE not built (run dune build @all)" >&2; exit 1; }
[ -x "$BENCH" ] || { echo "soak: $BENCH not built (run dune build @all)" >&2; exit 1; }
command -v curl > /dev/null 2>&1 || { echo "soak: curl is required" >&2; exit 1; }
mkdir -p "$OUT"
# The port loop below reads server.err as soon as the server is started
# in the background, possibly before the redirection truncates it: a
# previous run's file would hand it that run's port.
rm -f "$SOCK" "$OUT/server.out" "$OUT/server.err"

SERVER_PID=""

diagnostics() {
    echo "soak: ---- server.err (tail) ----" >&2
    tail -n 40 "$OUT/server.err" >&2 2>/dev/null || true
    echo "soak: ---- soak.json ----" >&2
    cat "$OUT/soak.json" >&2 2>/dev/null || true
}

fail() {
    echo "soak: $1" >&2
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

"$EXE" serve --quick --socket "$SOCK" --jobs 2 --io-shards "$SHARDS" \
    --metrics-port 0 \
    > "$OUT/server.out" 2> "$OUT/server.err" &
SERVER_PID=$!
trap 'if [ -n "$SERVER_PID" ]; then kill "$SERVER_PID" 2>/dev/null || true; fi; rm -f "$SOCK"' EXIT

# The server reports the OS-assigned metrics port on stderr.
MPORT=""
waited=0
while [ -z "$MPORT" ]; do
    MPORT=$(sed -n 's|.*metrics listening on http://127\.0\.0\.1:\([0-9]*\)/metrics.*|\1|p' \
        "$OUT/server.err" 2>/dev/null || true)
    [ -n "$MPORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died before binding the metrics port"
    [ "$waited" -ge 100 ] && fail "no 'metrics listening' line within 10s"
    sleep 0.1
    waited=$((waited + 1))
done
METRICS_URL="http://127.0.0.1:$MPORT/metrics"
HEALTH_URL="http://127.0.0.1:$MPORT/health"

# Readiness: /health answers 200 while the server is accepting.  A
# failure reports curl's exit status and error text with the code.
rc=0
code=$(curl -sS --max-time 5 -o /dev/null -w '%{http_code}' "$HEALTH_URL" \
    2> "$OUT/health.err") || rc=$?
[ "$code" = "200" ] \
  || fail "/health returned $code while serving (want 200; curl exit $rc: $(cat "$OUT/health.err"))"

# Warm the analysis cache outside the paced window so soak p99 measures
# the steady state, not the one cold analysis.
bounded "$EXE" client --wait --socket "$SOCK" analyze gzip > /dev/null \
  || fail "warmup analyze failed"
bounded "$EXE" client --socket "$SOCK" quadrant gzip > /dev/null \
  || fail "warmup quadrant failed"

curl -s "$METRICS_URL" > "$OUT/before.txt" || fail "scrape before soak failed"
sh scripts/check_metrics.sh "$OUT/before.txt" > /dev/null \
  || fail "pre-soak scrape fails the exposition lint"

bounded "$BENCH" --soak --socket "$SOCK" \
    --clients "$CLIENTS" --rps "$RPS" --duration "$DURATION" --json \
    > "$OUT/soak.json" 2> "$OUT/soak.err" \
  || fail "lost or mismatched responses under soak"
cat "$OUT/soak.err"

curl -s "$METRICS_URL" > "$OUT/after.txt" || fail "scrape after soak failed"
sh scripts/check_metrics.sh "$OUT/after.txt" \
  || fail "post-soak scrape fails the exposition lint"

# Scrape diff: uploaded as a CI artifact; informational, not a gate.
diff "$OUT/before.txt" "$OUT/after.txt" > "$OUT/scrape.diff" || true

# The endpoint and the loadgen must agree: every request the clients
# sent is visible in the counter delta, and at quiescence every counted
# request has exactly one ok-or-typed-error response.
sent=$(sed -n 's/.*"sent": \([0-9]*\),.*/\1/p' "$OUT/soak.json")
awk -v sent="$sent" '
  FNR == 1 { nfile++ }
  /^repro_requests_total / { total[nfile] = $2 }
  /^repro_responses_ok_total / { ok[nfile] = $2 }
  /^repro_responses_error_total\{/ { err[nfile] += $2 }
  END {
    delta = total[2] - total[1]
    if (delta != sent) {
      printf "soak: requests_total delta %d != %d requests sent\n", delta, sent
      exit 1
    }
    if (total[2] != ok[2] + err[2]) {
      printf "soak: requests_total %d != ok %d + errors %d\n", total[2], ok[2], err[2]
      exit 1
    }
    printf "soak: scrape consistent (delta=%d, total=%d = ok+err)\n", delta, total[2]
  }
' "$OUT/before.txt" "$OUT/after.txt" || fail "metrics scrape inconsistent with load"

# p99 budget, machine-normalised exactly like scripts/bench_gate.sh:
#   norm = (fresh_p99 / fresh_calib) / (base_p99 / base_calib) <= TOL
if [ "${SOAK_WRITE_BASELINE:-0}" = "1" ]; then
    cp "$OUT/soak.json" "$BASELINE"
    echo "soak: wrote new baseline $BASELINE"
else
    [ -f "$BASELINE" ] || fail "missing baseline $BASELINE (run make soak-baseline)"
    awk -v tol="$TOL" '
      FNR == 1 { nfile++ }
      /"p99_us"/ { v = $0; sub(/.*"p99_us": */, "", v); sub(/,.*/, "", v); p99[nfile] = v + 0 }
      /"calibration_ms"/ { v = $0; sub(/.*"calibration_ms": */, "", v); sub(/,.*/, "", v); calib[nfile] = v + 0 }
      END {
        if (nfile != 2 || p99[1] <= 0 || calib[1] <= 0 || p99[2] <= 0 || calib[2] <= 0) {
          print "soak: missing p99_us/calibration_ms in baseline or fresh run"; exit 1
        }
        norm = (p99[2] / calib[2]) / (p99[1] / calib[1])
        printf "soak: p99 %.1fus vs baseline %.1fus, normalised %.2fx (budget %.1fx)\n", p99[2], p99[1], norm, tol
        if (norm > tol) { print "soak: p99 budget exceeded"; exit 1 }
      }
    ' "$BASELINE" "$OUT/soak.json" || fail "p99 latency budget exceeded"
fi

# Graceful-drain readiness: queue several cold analyses, request
# shutdown, and /health must answer 503 while the drain runs.  The
# draining flag is set before the shutdown ack goes out, so by the time
# the shutdown client returns the very first probe should see 503.
BG_PIDS=""
for w in gcc mcf art applu ammp apsi bzip2 crafty eon equake; do
    bounded "$EXE" client --socket "$SOCK" analyze "$w" > /dev/null 2>&1 &
    BG_PIDS="$BG_PIDS $!"
done
sleep 0.3
bounded "$EXE" client --socket "$SOCK" shutdown > /dev/null \
  || fail "shutdown request failed"
saw503=0
tries=0
while [ "$tries" -lt 100 ]; do
    code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 2 "$HEALTH_URL" || true)
    if [ "$code" = "503" ]; then saw503=1; break; fi
    [ "$code" = "000" ] && break   # endpoint gone: drain already finished
    tries=$((tries + 1))
done
# shellcheck disable=SC2086  # BG_PIDS is an intentionally word-split pid list
wait $BG_PIDS || true
[ "$saw503" = "1" ] || fail "/health never answered 503 during the drain"

waited=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
    if [ "$waited" -ge "$DRAIN_TIMEOUT" ]; then
        fail "server still running ${DRAIN_TIMEOUT}s after shutdown"
    fi
    sleep 1
    waited=$((waited + 1))
done
wait "$SERVER_PID" || fail "server exited non-zero"
SERVER_PID=""

# CI step summary: a small markdown table when the workflow provides it.
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### Soak (shards=$SHARDS)"
        echo ""
        echo "| clients | rps target | duration | sent | lost | mismatched | p50 us | p99 us |"
        echo "|---|---|---|---|---|---|---|---|"
        sed -n \
          -e 's/.*"clients": \([0-9]*\),.*/| \1 /p' \
          "$OUT/soak.json" | tr -d '\n'
        sed -n 's/.*"rps_target": \([0-9]*\),.*/| \1 /p' "$OUT/soak.json" | tr -d '\n'
        sed -n 's/.*"duration_s": \([0-9]*\),.*/| \1 /p' "$OUT/soak.json" | tr -d '\n'
        sed -n 's/.*"sent": \([0-9]*\),.*/| \1 /p' "$OUT/soak.json" | tr -d '\n'
        sed -n 's/.*"lost": \([0-9]*\),.*/| \1 /p' "$OUT/soak.json" | tr -d '\n'
        sed -n 's/.*"mismatched": \([0-9]*\),.*/| \1 /p' "$OUT/soak.json" | tr -d '\n'
        sed -n 's/.*"p50_us": \([0-9.]*\),.*/| \1 /p' "$OUT/soak.json" | tr -d '\n'
        sed -n 's/.*"p99_us": \([0-9.]*\),.*/| \1 |/p' "$OUT/soak.json"
        echo ""
    } >> "$GITHUB_STEP_SUMMARY"
fi

echo "soak: PASS (${CLIENTS} clients at ${RPS} rps for ${DURATION}s, zero lost, scrape consistent)"
