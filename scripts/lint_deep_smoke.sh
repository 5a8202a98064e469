#!/bin/sh
# Deep-lint smoke test, gated in `make check` and CI.
#
# The graph-based rules (G001-G004) exist to catch what the syntactic
# D-rules cannot; this script proves they actually do.  It copies the
# source tree to a scratch directory (the linter only parses, nothing is
# compiled there), asserts the copy lints clean, injects five canned
# defects of the exact shapes the rules were built for, and asserts each
# one is reported with the right rule id in the right file:
#
#   1. aliased Random        (module R = Random; R.int)        -> G001
#   2. pool-task ref mutation (incr of a global in a Pool.map)  -> G002
#   3. handler failwith       (raise escaping the serve handler)-> G003
#   4. dead .mli export       (val never referenced anywhere)   -> G004
#   5. wall-clock via helper  (aliased Unix behind a root chain)-> G001
#
# Every defect uses an alias or an indirection, so none of them is
# visible to the syntactic D-rules -- exactly the blind spot the graph
# rules close.
set -eu

EXE=_build/default/bin/repro.exe
SCRATCH=_build/lint-deep-smoke
JSON=$SCRATCH/report.json

fail() { echo "lint-deep-smoke: $*" >&2; exit 1; }

[ -x "$EXE" ] || fail "$EXE not built (run dune build @all first)"

rm -rf "$SCRATCH"
mkdir -p "$SCRATCH"
cp -r lib bin bench test examples dune-project "$SCRATCH/"

# Baseline: the pristine copy must lint clean, or the assertions
# below would prove nothing.
"$EXE" lint --root "$SCRATCH" > /dev/null \
  || fail "pristine scratch copy is not lint clean"

# --- defect 1: aliased Random in an analysis module ------------------
cat >> "$SCRATCH/lib/core/quadrant.ml" <<'EOF'
module R__defect = Random
let _defect_rand () = R__defect.int 3
EOF

# --- defect 2: unsynchronized global mutation in a pool task ---------
cat >> "$SCRATCH/lib/zoo/atlas.ml" <<'EOF'
let _defect_hits = ref 0
let _defect_sweep pool xs =
  Parallel.Pool.map pool (fun x -> incr _defect_hits; x) xs
EOF

# --- defect 3: raise escaping the serve request handler --------------
sed -i.bak 's/^  let handle sess req ~nbytes =$/  let handle sess req ~nbytes =\n    failwith "defect: handler escape";/' \
  "$SCRATCH/lib/serve/server.ml"
grep -q 'defect: handler escape' "$SCRATCH/lib/serve/server.ml" \
  || fail "sed injection into server.ml did not take (anchor moved?)"

# --- defect 4: exported value no implementation ever references ------
cat >> "$SCRATCH/lib/kmeans/kmeans.mli" <<'EOF'
val _defect_dead : unit -> unit
EOF

# --- defect 5: wall clock behind an alias and a helper chain ---------
cat >> "$SCRATCH/lib/march/cpu.ml" <<'EOF'
module U__defect = Unix
let _defect_clock_helper () = U__defect.gettimeofday ()
let[@lint.root "determinism"] _defect_entry () = _defect_clock_helper ()
EOF

# The defective tree must now fail, with a JSON report to assert on.
if "$EXE" lint --json --root "$SCRATCH" > "$JSON"; then
  fail "defective scratch copy unexpectedly lints clean"
fi

expect() {
  rule=$1; file=$2
  grep -q "\"rule\":\"$rule\",\"severity\":\"error\",\"file\":\"$file\"" "$JSON" \
    || { cat "$JSON" >&2; fail "expected $rule in $file, not reported"; }
}

expect G001 lib/core/quadrant.ml
expect G002 lib/zoo/atlas.ml
expect G003 lib/serve/server.ml
expect G004 lib/kmeans/kmeans.mli
expect G001 lib/march/cpu.ml

# The clock defect must also carry the root chain in its message -- the
# whole point of the reachability analysis.
grep -q '"file":"lib/march/cpu.ml".*_defect_entry' "$JSON" \
  || { cat "$JSON" >&2; fail "clock defect reported without its root chain"; }

rm -rf "$SCRATCH"
echo "lint-deep-smoke: all 5 injected defects caught with the right rule ids."
