# Convenience targets mirroring CI.

.PHONY: build check test bench bench-gate bench-baseline lint lint-smoke serve-smoke load-smoke cache-smoke soak-smoke soak-baseline atlas-diff zoo-atlas zoo-baseline clean

# @all also builds the examples and benches, so they cannot bitrot.
build:
	dune build @all

# The determinism gate: the static lint must be clean, the whole suite must
# pass both fully serial and on a 4-domain pool (the equivalence tests
# compare the two bit-for-bit), the streaming CLI must print byte-identical
# traces at both, the analysis server must answer byte-identically to the
# offline CLI, the lint JSON reporter itself is golden-file compared on the
# fixture tree (which must also make lint exit non-zero), and two end-to-end
# CLI transcripts are golden-compared so the optimized tree/CV hot path can
# never drift from the byte output it had before the rewrite.
check: build lint lint-smoke serve-smoke load-smoke cache-smoke soak-smoke
	QCHECK_SEED=1 JOBS=1 dune runtest --force
	QCHECK_SEED=1 JOBS=4 dune runtest --force
	dune exec bin/repro.exe -- stream odb_h_q13 mcf --quick --jobs 1 > _build/stream-j1.out
	dune exec bin/repro.exe -- stream odb_h_q13 mcf --quick --jobs 4 > _build/stream-j4.out
	cmp _build/stream-j1.out _build/stream-j4.out
	cmp _build/stream-j1.out test/golden/stream-q13-mcf-quick.out
	JOBS=1 dune exec bin/repro.exe -- analyze --quick gzip > _build/analyze-gzip.out
	cmp _build/analyze-gzip.out test/golden/analyze-gzip-quick.out
	if dune exec bin/repro.exe -- lint --json --root test/lint_fixtures > _build/lint-fixtures.json 2>/dev/null; \
	  then echo "lint fixtures unexpectedly clean" >&2; exit 1; fi
	cmp _build/lint-fixtures.json test/lint_fixtures/golden-deep.json
	dune exec bin/repro.exe -- zoo atlas --quick --jobs 1 > _build/zoo-atlas-j1.out
	dune exec bin/repro.exe -- zoo atlas --quick --jobs 4 > _build/zoo-atlas-j4.out
	cmp _build/zoo-atlas-j1.out _build/zoo-atlas-j4.out
	cmp _build/zoo-atlas-j1.out test/golden/zoo-atlas-quick.out
	dune exec bin/repro.exe -- cache warm --quick --jobs 2 --dir _build/check-store gzip mcf
	dune exec bin/repro.exe -- cache verify --dir _build/check-store

# Static determinism & hygiene gate: the syntactic rules D001-D008
# (DESIGN.md §10) and the interprocedural rules G001-G004 (§15: alias-aware
# call graph, effect/raise fixpoints, race + dead-export audits) in one
# pass.  The 30s budget is a hard bound; the pass runs in well under a
# second today, so hitting it means the analysis has regressed badly.
lint: build
	timeout 30 dune exec bin/repro.exe -- lint

# Injects five canned defects (aliased Random, pool-task ref mutation,
# handler failwith, dead export, aliased clock behind a helper) into a
# scratch copy and asserts each is caught with the right rule id.
lint-smoke: build
	sh scripts/lint_deep_smoke.sh

# End-to-end serving smoke: serve on a temp socket, client analyze +
# stats + graceful shutdown, served analyze `cmp`ed against the offline
# CLI (DESIGN.md §11).
serve-smoke: build
	sh scripts/serve_smoke.sh

# Concurrent-load smoke (DESIGN.md §16): N forked clients against a
# sharded server, every response byte-verified; phase two turns on
# per-peer rate limiting and requires typed refusals with zero lost or
# mismatched responses.  LOAD_SHARDS sets the shard count.
load-smoke: build
	sh scripts/load_test.sh

# Operational-surface soak (DESIGN.md §17): serve with the HTTP metrics
# endpoint up, scrape + lint /metrics before and after a paced load run,
# require zero lost/mismatched responses, counter consistency between
# the scrape and the wire, a machine-normalised p99 within budget of the
# committed BENCH_soak.json, and /health 200-while-serving /
# 503-while-draining.  SOAK_SHARDS/SOAK_RPS etc. scale it.
soak-smoke: build
	sh scripts/soak_test.sh

# Refresh the committed soak baseline (run on an idle machine, commit).
soak-baseline: build
	SOAK_WRITE_BASELINE=1 sh scripts/soak_test.sh
	@echo "wrote BENCH_soak.json; review and commit it"

# Warm-restart equivalence gate (DESIGN.md §14): serve with a cold
# persistent store, restart on the same store, and require the warm
# response to be byte-identical, served from disk, with zero recomputes.
cache-smoke: build
	sh scripts/cache_smoke.sh

# Quadrant-verdict diff of two zoo-atlas JSON artifacts; exits non-zero
# and lists the flips if the two disagree.
#   make atlas-diff OLD=baseline.json NEW=zoo-atlas-full.json
atlas-diff:
	sh scripts/atlas_diff.sh $(OLD) $(NEW)

test:
	dune runtest

# The core-kernel table; `make bench-gate` compares the same kernels.
bench:
	dune exec bench/main.exe

# Benchmark-regression gate (DESIGN.md §12): time the core kernels and
# compare against the committed BENCH_core.json baseline.  Fails on a
# >1.5x normalised median slowdown or if tree_build / cv_curve fall
# under 3x their Reference implementations.
bench-gate: build
	dune exec bench/main.exe -- --json > _build/BENCH_core.fresh.json
	sh scripts/bench_gate.sh BENCH_core.json _build/BENCH_core.fresh.json

# Refresh the committed baseline (run on an idle machine, then commit).
bench-baseline: build
	dune exec bench/main.exe -- --json > BENCH_core.json
	@echo "wrote BENCH_core.json; review and commit it"

# Workload-zoo characterization gate: regenerate the quick-subset quadrant
# atlas at jobs 1 and 4 and compare both byte-for-byte against the
# committed golden (the same gate `make check` and CI run).
zoo-atlas: build
	dune exec bin/repro.exe -- zoo atlas --quick --jobs 1 > _build/zoo-atlas-j1.out
	dune exec bin/repro.exe -- zoo atlas --quick --jobs 4 > _build/zoo-atlas-j4.out
	cmp _build/zoo-atlas-j1.out _build/zoo-atlas-j4.out
	cmp _build/zoo-atlas-j1.out test/golden/zoo-atlas-quick.out

# Refresh the committed golden atlas after an intentional pipeline or
# zoo change (then review the diff and commit it).
zoo-baseline: build
	dune exec bin/repro.exe -- zoo atlas --quick --jobs 1 > test/golden/zoo-atlas-quick.out
	@echo "wrote test/golden/zoo-atlas-quick.out; review and commit it"

clean:
	dune clean
