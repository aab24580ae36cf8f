# Development targets.  `make check` is the full gate CI runs.

PYTHON ?= python

.PHONY: install test bench bench-smoke bench-baseline perf-gate plan-gate \
	plan-baseline profile-smoke chaos-smoke report-smoke parallel-smoke \
	serve-smoke crash-smoke telemetry-smoke wcoj-smoke perfbench-smoke \
	runs-index examples docs check clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ -q

# Bench artifacts go to a scratch directory so repo-root BENCH_<date>.json
# files stop churning in every PR; the committed comparison point is
# benchmarks/baseline.json (refresh it with `make bench-baseline`), and the
# canonical trajectory feed is benchmarks/results/.  A one-sample smoke run
# is never a trajectory point, so this gate only validates the committed
# points and never publishes a new one.
bench-smoke:
	rm -rf .bench-smoke
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke \
		--out-dir .bench-smoke --runs-dir .bench-smoke/runs
	PYTHONPATH=src $(PYTHON) -m repro check .bench-smoke/BENCH_*.json \
		benchmarks/results/BENCH_*.json .bench-smoke/runs/*/trace.json \
		.bench-smoke/runs/*/events.jsonl
	rm -rf .bench-smoke

# Refresh the committed perf baseline (smoke mode, the size perf-gate
# compares against).  Run at a clean commit and commit the result.
# best-of-5 repeats: smoke scenarios run sub-millisecond, so a single
# sample is too noisy to gate against.
bench-baseline:
	rm -rf .bench-baseline
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke --repeat 5 \
		--out-dir .bench-baseline --runs-dir .bench-baseline/runs
	PYTHONPATH=src $(PYTHON) -m repro check .bench-baseline/BENCH_*.json
	cp .bench-baseline/BENCH_*.json benchmarks/baseline.json
	rm -rf .bench-baseline
	@echo "benchmarks/baseline.json refreshed — commit it"

# The perf regression gate: a fresh smoke bench must stay within
# tolerance of the committed baseline, scenario by scenario.
perf-gate:
	rm -rf .perf-gate
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke --repeat 5 \
		--out-dir .perf-gate --runs-dir .perf-gate/runs
	PYTHONPATH=src $(PYTHON) -m repro check \
		--baseline benchmarks/baseline.json .perf-gate/BENCH_*.json
	rm -rf .perf-gate

# Plan-quality gate (docs/OBSERVABILITY.md): a fresh smoke bench of the
# engine scenarios must produce schema-valid plan records (plans.jsonl
# and `repro explain --json`), and their per-predicate calibration
# (q-error p90, shadow choice accuracy) must stay within tolerance of
# the committed baseline.  Calibration derives from output counts and
# pebbling costs — never timings — so same-seed runs gate
# deterministically.
plan-gate:
	rm -rf .plan-gate
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke \
		--scenario engine-planner --scenario engine-equijoin \
		--scenario engine-spatial --scenario engine-chain \
		--out-dir .plan-gate --runs-dir .plan-gate/runs \
		--no-bench-file
	PYTHONPATH=src $(PYTHON) -m repro explain --scenario engine-planner \
		--json > .plan-gate/explain.json
	PYTHONPATH=src $(PYTHON) -m repro check \
		.plan-gate/runs/*/plans.jsonl .plan-gate/explain.json
	PYTHONPATH=src $(PYTHON) -m repro check \
		--baseline benchmarks/plan_baseline.json \
		.plan-gate/runs/*/plans.jsonl
	rm -rf .plan-gate

# Refresh the committed plan-quality baseline (same workload as
# plan-gate).  Run at a clean commit and commit the result.
plan-baseline:
	rm -rf .plan-baseline
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke \
		--scenario engine-planner --scenario engine-equijoin \
		--scenario engine-spatial --scenario engine-chain \
		--out-dir .plan-baseline --runs-dir .plan-baseline/runs \
		--no-bench-file
	PYTHONPATH=src $(PYTHON) -m repro check \
		--write-baseline benchmarks/plan_baseline.json \
		.plan-baseline/runs/*/plans.jsonl
	rm -rf .plan-baseline
	@echo "benchmarks/plan_baseline.json refreshed — commit it"

# Profiling smoke: `repro profile` on a tiny workload must attribute
# nonzero self time (the CLI exits 1 on an empty profile).
profile-smoke:
	PYTHONPATH=src $(PYTHON) -m repro profile --smoke --top 10
	PYTHONPATH=src $(PYTHON) -m repro trace --smoke --format perfetto \
		-o .profile-smoke-trace.json
	PYTHONPATH=src $(PYTHON) -m repro check .profile-smoke-trace.json
	rm -f .profile-smoke-trace.json

# Deterministic fault injection: the suite plus one chaos bench per seed.
# The chaos bench must exit 1 (scenarios fail after retry) without ever
# printing a raw traceback, and its failure records must validate.
chaos-smoke:
	rm -rf .chaos-smoke && mkdir -p .chaos-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/runtime/ -q
	@for seed in 0 1 2; do \
		echo "== chaos seed $$seed"; \
		PYTHONPATH=src $(PYTHON) -m repro bench --smoke \
			--scenario storage-paging \
			--out-dir .chaos-smoke/seed$$seed \
			--runs-dir .chaos-smoke/seed$$seed/runs \
			--fault-seed $$seed --fault-rate 1.0 \
			2> .chaos-smoke/stderr.txt; \
		status=$$?; \
		cat .chaos-smoke/stderr.txt; \
		test $$status -eq 1 || exit 1; \
		grep -q Traceback .chaos-smoke/stderr.txt && exit 1 || true; \
	done
	PYTHONPATH=src $(PYTHON) -m repro check .chaos-smoke/seed*/BENCH_*.json
	rm -rf .chaos-smoke

# Cross-run report smoke: three seeded smoke benches into a scratch runs
# dir, a trend query over them, and the HTML dashboard — with every
# artifact (events.jsonl, report.html links) validated.
report-smoke:
	rm -rf .report-smoke
	@for seed in 0 1 2; do \
		echo "== report-smoke bench seed $$seed"; \
		PYTHONPATH=src $(PYTHON) -m repro bench --smoke \
			--scenario solver-exact --scenario engine-equijoin \
			--seed $$seed --runs-dir .report-smoke/runs \
			--no-bench-file || exit 1; \
		sleep 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro check .report-smoke/runs/*/events.jsonl
	PYTHONPATH=src $(PYTHON) -m repro runs index --runs-dir .report-smoke/runs
	PYTHONPATH=src $(PYTHON) -m repro runs list --runs-dir .report-smoke/runs
	PYTHONPATH=src $(PYTHON) -m repro runs trend --scenario solver-exact \
		--runs-dir .report-smoke/runs
	PYTHONPATH=src $(PYTHON) -m repro report --html \
		-o .report-smoke/report.html --runs-dir .report-smoke/runs
	PYTHONPATH=src $(PYTHON) -m repro check .report-smoke/report.html
	rm -rf .report-smoke

# Determinism gate for the parallel solve service (docs/PARALLEL.md):
# the batch scenario must produce byte-identical per-scenario results at
# --jobs 1 and --jobs 4, and two runs sharing a persistent solve cache
# must agree with cache.hit events visible in the warm run's event log.
parallel-smoke:
	rm -rf .parallel-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/parallel/ -q
	@for leg in j1 j4; do \
		jobs=$${leg#j}; \
		echo "== solver-batch --jobs $$jobs"; \
		PYTHONPATH=src $(PYTHON) -m repro bench --smoke \
			--scenario solver-batch --jobs $$jobs \
			--out-dir .parallel-smoke/$$leg \
			--runs-dir .parallel-smoke/$$leg/runs || exit 1; \
	done
	@for leg in warm1 warm2; do \
		echo "== solver-batch --jobs 4 --cache ($$leg)"; \
		PYTHONPATH=src $(PYTHON) -m repro bench --smoke \
			--scenario solver-batch --jobs 4 \
			--cache .parallel-smoke/solve-cache.db \
			--out-dir .parallel-smoke/$$leg \
			--runs-dir .parallel-smoke/$$leg/runs || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro check \
		.parallel-smoke/*/runs/*/events.jsonl
	$(PYTHON) tools/check_parallel_smoke.py .parallel-smoke
	rm -rf .parallel-smoke

# Solve-server gate (docs/PARALLEL.md): the server suite, then a real
# `repro serve` process driven by two waves of the async load generator —
# every request must reach a clean terminal status, the warm wave must
# hit the shared solve cache, and the run's events.jsonl must validate.
serve-smoke:
	rm -rf .serve-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/server/ -q
	PYTHONPATH=src $(PYTHON) tools/check_serve_smoke.py .serve-smoke
	rm -rf .serve-smoke

# Crash-tolerance gate (docs/ROBUSTNESS.md): the retry/healing/crash
# suites, then a real journaled `repro serve` process SIGKILL'd mid-wave
# — the write-ahead journal must hold the admitted-but-unanswered
# entries, and a `--recover` restart over the stale socket must replay
# them all, emit server.recover events, and leave the journal clean.
crash-smoke:
	rm -rf .crash-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/runtime/test_retry.py \
		tests/parallel/test_healing.py tests/server/test_journal.py \
		tests/server/test_crash.py -q
	PYTHONPATH=src $(PYTHON) tools/check_crash_smoke.py .crash-smoke
	rm -rf .crash-smoke

# Telemetry gate (docs/OBSERVABILITY.md): the tracing/telemetry suites,
# then a real journaled `repro serve` process under load — its `metrics`
# op must answer valid Prometheus text format with the required families
# (per-op latency histograms included), and one addressed request must
# assemble from the run's trace.jsonl into a single validated Chrome
# trace whose dispatch and worker solver spans share one trace_id.
telemetry-smoke:
	rm -rf .telemetry-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/obs/test_context.py \
		tests/obs/test_telemetry.py tests/obs/test_trace.py \
		tests/server/test_telemetry.py -q
	PYTHONPATH=src $(PYTHON) tools/check_metrics_exposition.py .telemetry-smoke
	rm -rf .telemetry-smoke

# Worst-case-optimality gate (docs/MULTIWAY.md): the multiway join
# suites, then the two wcoj bench scenarios — on the skewed triangle
# LFTJ's intermediates must stay within the AGM bound while the binary
# cascade's measured AND estimated intermediates exceed it (the planner
# sees the blowup coming); on the uniform 4-cycle LFTJ must stay within
# the bound.  Wall-clock speedups are printed, never gated.
wcoj-smoke:
	rm -rf .wcoj-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/joins/test_multiway.py \
		tests/joins/test_properties_multiway.py -q
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke \
		--scenario wcoj-triangle --scenario wcoj-4cycle \
		--out-dir .wcoj-smoke --runs-dir .wcoj-smoke/runs
	$(PYTHON) tools/check_wcoj_smoke.py .wcoj-smoke/BENCH_*.json
	rm -rf .wcoj-smoke

# Repository benchmark smoke test (perfbench/README.md): every workload on
# tiny inputs, with each answer checked against the paper (edge coverage,
# m <= pi <= 1.25m, pi = m on equijoins, server pi vs a local solve).
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/test_smoke.py

# Build (or refresh) the queryable SQLite index over runs/.
runs-index:
	PYTHONPATH=src $(PYTHON) -m repro runs index --runs-dir runs

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done

docs:
	$(PYTHON) tools/gen_api_docs.py

check: test bench examples docs
	git diff --exit-code docs/API.md

# benchmarks/results/ is the committed perf-trajectory feed — never clean it.
clean:
	rm -rf .pytest_cache .bench-smoke .bench-baseline .perf-gate \
		.plan-gate .plan-baseline .report-smoke .parallel-smoke \
		.serve-smoke .crash-smoke .telemetry-smoke .wcoj-smoke \
		.chaos-smoke .profile-smoke-trace.json .solve-cache.db \
		src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
