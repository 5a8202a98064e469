#!/bin/sh
# Build the benchmark and bin/repro.exe from this checkout, then run one
# workload.  Run from anywhere; arguments go to perfbench/main.exe:
#   sh perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# Exits 2 without a result when the build fails.
cd "$(dirname "$0")/.." || exit 2
# DUNE_CACHE=disabled keeps dune from writing its shared cache outside
# the checkout.
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./perfbench/main.exe ./bin/repro.exe 1>&2 || exit 2
# The CPUs this run may use, recorded as "cores" before pinning.
PERFBENCH_CORES=$(nproc)
export PERFBENCH_CORES
# Pin the benchmark, and so every server it starts, to one CPU: a client
# and a server on different vCPUs pay a cross-CPU wake-up per round trip
# whose latency the host sets (README.md, "Steadiness").
if command -v taskset >/dev/null 2>&1; then
  cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')
  exec taskset -c "$cpu" ./_build/default/perfbench/main.exe "$@"
fi
exec ./_build/default/perfbench/main.exe "$@"
