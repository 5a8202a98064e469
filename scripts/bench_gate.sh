#!/bin/sh
# Benchmark regression gate.
#
#   sh scripts/bench_gate.sh BENCH_core.json BENCH_core.fresh.json
#
# Compares a fresh core-kernel run (bench/main.exe --json)
# against the committed baseline.  Both files carry a calibration figure
# (a fixed pure-OCaml loop timed in the same process), so medians are
# compared after normalising by machine speed:
#
#   norm = (fresh_median / fresh_calibration) / (base_median / base_calibration)
#
# The gate fails only when a kernel's normalised median slows down by
# more than 1.5x — wide enough to ride out CI-runner noise, tight enough
# to catch a real hot-path regression.  It also enforces a floor on the
# fast path: tree_build and cv_curve must stay >= 3x faster than their
# Reference implementations (that ratio is intra-run, from alternated
# reps, so it needs no normalisation; both read about 10x, and at
# least 9.8x next to a periodic busy loop on the same CPU).  Kernels
# without a reference (driver_run) carry no speedup_vs_ref and show "-".
#
# POSIX sh + awk only; no jq.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 BASELINE.json FRESH.json" >&2
    exit 2
fi
base=$1
fresh=$2
[ -f "$base" ] || { echo "bench_gate: missing baseline file: $base" >&2; exit 2; }
[ -f "$fresh" ] || { echo "bench_gate: missing fresh file: $fresh" >&2; exit 2; }

# One pass prints the verdict table and, when the CI workflow provides
# $GITHUB_STEP_SUMMARY, appends the same rows there as markdown, on a
# failing run too.
awk -v tol=1.5 -v minspeed=3.0 -v summary="${GITHUB_STEP_SUMMARY:-}" '
  FNR == 1 { nfile++ }
  /"calibration_ms"/ {
    v = $0
    sub(/.*"calibration_ms": */, "", v); sub(/,.*/, "", v)
    calib[nfile] = v + 0
  }
  /"name": / {
    line = $0
    name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    med = line; sub(/.*"median_ms": */, "", med); sub(/,.*/, "", med)
    spd = line; sub(/.*"speedup_vs_ref": */, "", spd); sub(/[},].*/, "", spd)
    if (line !~ /"speedup_vs_ref"/) spd = -1
    if (nfile == 1) { bmed[name] = med + 0; border[++bn] = name }
    else { fmed[name] = med + 0; fspd[name] = spd + 0 }
  }
  function md(row) { if (summary != "") print row >> summary }
  END {
    if (nfile != 2) { print "bench_gate: expected two input files"; exit 2 }
    if (bn == 0) { print "bench_gate: no kernels in baseline"; exit 2 }
    if (calib[1] <= 0 || calib[2] <= 0) { print "bench_gate: missing calibration_ms"; exit 2 }
    fail = 0
    printf "%-16s %12s %12s %10s %10s\n", "kernel", "base ms", "fresh ms", "norm", "vs ref"
    md("### Bench gate (calibration-normalised medians)")
    md("")
    md("| kernel | baseline ms | fresh ms | normalised | verdict |")
    md("|---|---|---|---|---|")
    for (i = 1; i <= bn; i++) {
      n = border[i]
      if (!(n in fmed)) {
        printf "%-16s missing from fresh run: FAIL\n", n
        md(sprintf("| %s | %.3f | missing | - | FAIL |", n, bmed[n]))
        fail = 1
        continue
      }
      ratio = (fmed[n] / calib[2]) / (bmed[n] / calib[1])
      verdict = (ratio > tol) ? "SLOWDOWN" : "ok"
      if (ratio > tol) fail = 1
      vsref = (fspd[n] < 0) ? "-" : sprintf("%.2fx", fspd[n])
      printf "%-16s %12.3f %12.3f %9.2fx %10s  %s\n", n, bmed[n], fmed[n], ratio, vsref, verdict
      if ((n == "tree_build" || n == "cv_curve") && fspd[n] < minspeed) {
        printf "%-16s speedup_vs_ref %.2fx below %.1fx floor: FAIL\n", n, fspd[n], minspeed
        verdict = ((ratio > tol) ? "SLOWDOWN, " : "") \
          sprintf("%.2fx vs ref below %.1fx floor", fspd[n], minspeed)
        fail = 1
      }
      md(sprintf("| %s | %.3f | %.3f | %.2fx | %s |", n, bmed[n], fmed[n], ratio, verdict))
    }
    md("")
    if (fail) { print "bench gate: FAIL"; exit 1 }
    printf "bench gate: PASS (<= %.1fx normalised median, >= %.1fx vs reference)\n", tol, minspeed
  }
' "$base" "$fresh"
