# Repo tooling. Everything runs from a source checkout (PYTHONPATH=src),
# no installation required.

PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: test bench-smoke adaptive-smoke phy-smoke perf-check bench docs-check docs-links sweeps protocols protocol-coverage check ci

## tier-1 test suite (fast, deterministic) -- must stay green
test:
	$(PYTHON) -m pytest -x -q

## seconds-long end-to-end check of the experiment orchestrator:
## one tiny sweep through workers, cache and export, under pytest
bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_s0_orchestrator_smoke.py

## seconds-long end-to-end check of adaptive seed replication: the
## smoke_adaptive sweep through per-point CI stopping, plus the
## zero-executions-on-warm-cache invariant, under pytest
adaptive-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_s1_adaptive_smoke.py

## seconds-long end-to-end check of the physical layer: the phy_smoke
## sweep (one run per registered radio x MAC combination, sinr and
## csma_ca included), a warm re-run that must execute nothing, the
## physics-fingerprint regression suite (golden metric rows, every
## registered spec's cache keys, artifact hashes) and the sinr radio's
## interferer lookup against a verbatim copy of the spatial-hash lookup
## it replaced (same interferers, same order, same SINR)
PHY_SMOKE_DIR := .ci/phy-smoke
phy-smoke:
	rm -rf $(PHY_SMOKE_DIR)
	$(PYTHON) -m repro.experiments run phy_smoke \
	  --cache-dir $(PHY_SMOKE_DIR)/cache --out $(PHY_SMOKE_DIR)/out
	$(PYTHON) -m repro.experiments run phy_smoke \
	  --cache-dir $(PHY_SMOKE_DIR)/cache --format none 2>&1 \
	  | grep -q "+ 0 executed" \
	  || { echo "phy gate: warm re-run executed runs (expected 0)"; exit 1; }
	$(PYTHON) -m pytest -q tests/test_phy_fingerprint.py tests/test_phy_interference.py
	@echo "make phy-smoke: OK (3x3 radio/MAC grid, warm zero-exec replay, fingerprints match golden, interferer lookup matches its reference)"

## the repo benchmark as a gate: each perfbench workload runs one
## operation, then the two simulator workloads run once more traced
## (--trace 1), and scripts/perf_gate.py judges every output: each must
## report "correct": true (the 200-node HVDB and flooding runs reproduce
## their reference rows and the phy_smoke sweep its CSV digests,
## perfbench/reference.json); each untraced run must hold its
## workload's wall-time ceiling (wall_s about 10x the accepted median,
## so only a catastrophic slowdown fails); and each traced run must
## leave under 0.05 of its time outside the named layers
## (trace.unattributed_frac), so per-layer timings stay trustworthy
PERF_CHECK_DIR := .ci/perf-check
PERF_CHECK_WORKLOADS := hvdb_200 flood_200 sweep_phy_smoke
PERF_TRACE_WORKLOADS := hvdb_200 flood_200
perf-check:
	rm -rf $(PERF_CHECK_DIR)
	mkdir -p $(PERF_CHECK_DIR)
	for w in $(PERF_CHECK_WORKLOADS); do \
	  out=$(PERF_CHECK_DIR)/$$w.out; \
	  $(PYTHON) perfbench/run.py --workload $$w --seconds 0 > $$out \
	    || { cat $$out; echo "perf-check: $$w failed"; exit 1; }; \
	done
	for w in $(PERF_TRACE_WORKLOADS); do \
	  out=$(PERF_CHECK_DIR)/$$w.trace.out; \
	  $(PYTHON) perfbench/run.py --workload $$w --seconds 0 --trace 1 > $$out \
	    || { cat $$out; echo "perf-check: traced $$w failed"; exit 1; }; \
	done
	$(PYTHON) scripts/perf_gate.py $(PERF_CHECK_DIR)/*.out \
	  || { tail -n +1 $(PERF_CHECK_DIR)/*.out; exit 1; }
	@echo "make perf-check: OK ($(PERF_CHECK_WORKLOADS) match perfbench/reference.json under their wall-time ceilings; traced $(PERF_TRACE_WORKLOADS) attribute their time)"

## the paper's claims: every benchmarks/bench_*.py regenerates one table
## of the evaluation and asserts its claim (minutes).  The files are not
## named test_*.py, so the pattern is given here; tier-1 (make test)
## keeps pytest's default collection
bench:
	$(PYTHON) -m pytest -q -o python_files='bench_*.py' benchmarks/

## documentation consistency: the docs suite exists, intra-repo links
## resolve, README + docs/ match the shipped CLI, quoted sweep/make
## commands reference real things, package docstrings match exports
docs-check:
	$(PYTHON) scripts/check_docs.py

## just the intra-repo link check (the dedicated CI step)
docs-links:
	$(PYTHON) scripts/check_docs.py --links

## list the registered experiment sweeps
sweeps:
	$(PYTHON) -m repro.experiments list

## list registered protocol stacks / radios / MACs / mobility models
protocols:
	$(PYTHON) -m repro.experiments protocols

## CI gate: every registered protocol must be exercised by a registered sweep
protocol-coverage:
	$(PYTHON) -m repro.experiments protocols --check-coverage

## everything a PR must keep green: tier-1, the smoke gates, the
## benchmark's correctness and wall-time gate, docs and coverage
check: test bench-smoke adaptive-smoke phy-smoke perf-check docs-check protocol-coverage

## reproduce the CI pipeline (.github/workflows/ci.yml) locally:
## tier-1 tests, docs consistency (links included), the smoke sweep
## split across three share-nothing shards, a merge that must
## reassemble the full grid, the adaptive smoke sweep (run + a
## warm-cache re-run that must execute zero runs), the physical-layer
## smoke (3x3 radio/MAC grid, warm zero-exec replay, golden
## fingerprints, interferer-lookup reference), the benchmark gate (every perfbench workload reproduces its reference
## under its wall-time ceiling) and the paper's claims (make bench)
CI_DIR := .ci
ci: test docs-check protocol-coverage
	rm -rf $(CI_DIR)
	for i in 1 2 3; do \
	  $(PYTHON) -m repro.experiments run smoke --shard $$i/3 \
	    --cache-dir $(CI_DIR)/shard$$i --format none || exit 1; \
	done
	$(PYTHON) -m repro.experiments merge smoke --cache-dir $(CI_DIR)/merged \
	  --from $(CI_DIR)/shard1 --from $(CI_DIR)/shard2 --from $(CI_DIR)/shard3 \
	  --out $(CI_DIR)/artifacts
	$(PYTHON) -m repro.experiments run smoke_adaptive \
	  --cache-dir $(CI_DIR)/adaptive --format none
	$(PYTHON) -m repro.experiments run smoke_adaptive \
	  --cache-dir $(CI_DIR)/adaptive --format none \
	  | grep -q "; 0 executed +" \
	  || { echo "adaptive gate: warm-cache re-run executed runs (expected 0)"; exit 1; }
	$(MAKE) phy-smoke
	$(MAKE) perf-check
	$(MAKE) bench
	@echo "make ci: OK (tests, docs, 3-way sharded smoke, merge, adaptive, phy, perf-check, paper claims)"
