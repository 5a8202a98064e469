#!/bin/sh
# Warm-restart equivalence gate for the persistent result store, run in
# `make check` and CI.
#
# Round 1: serve with an empty --store and ask for analyze, quadrant and
# re-curve of one workload from three concurrent clients.  The three
# requests share one analysis, so single-flight must compute and persist
# it once: exactly one store miss and one store write, whose bytes are
# pinned by MD5.  Shut down.
# Round 2: restart on the same store and analyze the same workload — the
# response must come from the warmed cache (stats show exactly one store
# hit, no store miss and zero analysis-cache misses, i.e. zero
# recomputes) and be byte-identical to round 1 and to the offline CLI.
# Finally `repro cache verify` must pass over the store the two servers
# produced.
set -eu

EXE=_build/default/bin/repro.exe
OUT=_build/cache-smoke
SOCK="${TMPDIR:-/tmp}/repro-cache-smoke-$$.sock"
STORE="$OUT/store"
STEP_TIMEOUT="${SERVE_SMOKE_TIMEOUT:-120}"   # seconds per client step
DRAIN_TIMEOUT="${SERVE_SMOKE_DRAIN:-30}"     # seconds for server exit after shutdown

[ -x "$EXE" ] || { echo "cache-smoke: $EXE not built (run dune build @all)" >&2; exit 1; }
rm -rf "$OUT"
mkdir -p "$OUT"
rm -f "$SOCK"

SERVER_PID=""

diagnostics() {
    for f in server1 server2; do
        echo "cache-smoke: ---- $f.err (tail) ----" >&2
        tail -n 40 "$OUT/$f.err" >&2 2>/dev/null || true
    done
}

fail() {
    echo "cache-smoke: $1" >&2
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

start_server() {
    "$EXE" serve --quick --socket "$SOCK" --jobs 2 --store "$STORE" \
        > "$OUT/$1.out" 2> "$OUT/$1.err" &
    SERVER_PID=$!
}

stop_server() {
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
    SERVER_PID=""
}

# A stats metric, by exact key, from a rendered snapshot.
metric() {
    awk -v key="$2" '$1 == key { print $2 }' "$1"
}

trap 'if [ -n "$SERVER_PID" ]; then kill "$SERVER_PID" 2>/dev/null || true; fi; rm -f "$SOCK"' EXIT

# ---- round 1: cold store, three verbs at once ---------------------------
start_server server1
bounded "$EXE" client --wait --socket "$SOCK" health > /dev/null \
  || fail "round 1 server not up (${STEP_TIMEOUT}s)"
bounded "$EXE" client --socket "$SOCK" analyze gcc > "$OUT/analyze1.out" &
analyze_pid=$!
bounded "$EXE" client --socket "$SOCK" quadrant gcc > "$OUT/quadrant1.out" &
quadrant_pid=$!
bounded "$EXE" client --socket "$SOCK" re-curve gcc > "$OUT/recurve1.out" &
recurve_pid=$!
for pid in "$analyze_pid" "$quadrant_pid" "$recurve_pid"; do
    wait "$pid" || fail "a round 1 client failed or timed out (${STEP_TIMEOUT}s)"
done
bounded "$EXE" client --socket "$SOCK" stats > "$OUT/stats1.out" \
  || fail "round 1 stats failed or timed out (${STEP_TIMEOUT}s)"
stop_server

# One analysis behind three requests: computed, and persisted, once.
store_misses=$(metric "$OUT/stats1.out" store.misses)
[ "${store_misses:-0}" -eq 1 ] \
  || fail "round 1 expected 1 store miss for one analysis (store.misses=$store_misses)"
writes=$(metric "$OUT/stats1.out" store.writes)
[ "${writes:-0}" -eq 1 ] \
  || fail "round 1 expected 1 store write for one analysis (store.writes=$writes)"

# The entry's bytes are pinned: the gcc entry `repro cache warm --quick`
# writes, at any --jobs.  A change to them is a format change.
GCC_ENTRY_MD5=3702f292e5f72a33195fc8d9782d8ca8
entry=$(find "$STORE" -type f ! -path "*/quarantine/*" ! -name ".*")
[ "$(echo "$entry" | wc -l)" -eq 1 ] || fail "round 1 expected one entry file, found: $entry"
md5=$(md5sum "$entry" | cut -d' ' -f1)
[ "$md5" = "$GCC_ENTRY_MD5" ] \
  || fail "round 1 entry bytes changed (md5 $md5, pinned $GCC_ENTRY_MD5)"

# ---- round 2: warm restart ---------------------------------------------
start_server server2
bounded "$EXE" client --wait --socket "$SOCK" analyze gcc > "$OUT/analyze2.out" \
  || fail "round 2 analyze failed or timed out (${STEP_TIMEOUT}s)"
bounded "$EXE" client --socket "$SOCK" stats > "$OUT/stats2.out" \
  || fail "round 2 stats failed or timed out (${STEP_TIMEOUT}s)"
stop_server

grep -q "warmed 1 cached analyses" "$OUT/server2.err" \
  || fail "restarted server did not warm from the store"
# Warm reads the one stored entry once: exactly one store hit, no miss.
hits=$(metric "$OUT/stats2.out" store.hits)
[ "${hits:-0}" -eq 1 ] || fail "warm restart expected 1 store hit (store.hits=$hits)"
store_misses=$(metric "$OUT/stats2.out" store.misses)
[ "${store_misses:-1}" -eq 0 ] || fail "warm restart missed the store (store.misses=$store_misses)"
misses=$(metric "$OUT/stats2.out" cache.misses)
[ "${misses:-1}" -eq 0 ] || fail "warm restart recomputed an analysis (cache.misses=$misses)"
corrupt=$(metric "$OUT/stats2.out" store.corrupt)
[ "${corrupt:-1}" -eq 0 ] || fail "store reported corrupt entries (store.corrupt=$corrupt)"

# ---- byte identity ------------------------------------------------------
cmp "$OUT/analyze1.out" "$OUT/analyze2.out" \
  || fail "warm-restart response differs from cold response"
JOBS=1 "$EXE" analyze --quick gcc > "$OUT/offline.out"
cmp "$OUT/analyze2.out" "$OUT/offline.out" \
  || fail "served response differs from offline analyze"

# ---- store self-check ---------------------------------------------------
"$EXE" cache verify --dir "$STORE" > "$OUT/verify.out" \
  || fail "cache verify failed over the smoke store"

echo "cache-smoke: warm restart byte-identical, served from disk, zero recomputes"
