# Repro build/test entry points. Everything runs from the repo root with
# PYTHONPATH=src; no installation required.

PY ?= python
PYTEST = PYTHONPATH=src $(PY) -m pytest

.PHONY: test bench bench-smoke probe coverage docs-check api-docs examples lint

# tier-1 verify: the whole suite, fail fast
test:
	$(PYTEST) -x -q

# benchmark harness only, verbose so the reproduced tables/figures print
bench:
	$(PYTEST) benchmarks/ -q -s

# the repo benchmark (BENCHMARK.json, bench_e2e/README.md) at smoke size:
# all four workloads end to end, two untraced laps and a traced one each,
# results checked; exits non-zero unless every workload ends `correct`
bench-smoke:
	PYTHONPATH=src $(PY) -m bench_e2e --smoke

# per-step wall ms, minor page faults, system ms and CPU share of a fused
# width-4 step (split across two CPUs, and on one thread) next to 4
# serial steps and two concurrent serial processes, on the sweep_paper
# models at benchmark size, plus the bytes each array's activation arena
# holds (`tools/step_probe.py --kernels`: the split threshold's table)
probe:
	PYTHONPATH=src $(PY) tools/step_probe.py

# line-coverage gate on the runtime package (>= 80%): coverage.py via
# pytest-cov when installed (CI), else the stdlib trace fallback — same
# installed-vs-offline split as `make lint`
coverage:
	@if $(PY) -c "import coverage, pytest_cov" >/dev/null 2>&1; then \
		PYTHONPATH=src $(PY) -m pytest --cov=repro --cov-report=term \
			--cov-report=json:coverage.json -q tests/ && \
		$(PY) tools/coverage_gate.py --coverage-json coverage.json --min 80 ; \
	else \
		echo "coverage.py not installed; running tools/coverage_gate.py --fallback" ; \
		PYTHONPATH=src $(PY) tools/coverage_gate.py --fallback --min 80 ; \
	fi

# style/correctness lint: ruff when installed (CI), else the stdlib
# fallback that enforces the core of the same rule families (this repo's
# build container cannot pip-install)
lint:
	@if $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check . ; \
	else \
		echo "ruff not installed; running tools/lint_fallback.py" ; \
		$(PY) tools/lint_fallback.py ; \
	fi

# docs gate: every intra-repo link in docs/ + README resolves, every
# public runtime class has a docstring, the executable doc examples run
# (tools/check_docs.py), and the committed docs/api.md matches what
# tools/gen_api_docs.py would generate from the source docstrings
docs-check:
	PYTHONPATH=src $(PY) -c "import repro, repro.hfta, repro.hfht, \
	repro.hwsim, repro.cluster, repro.runtime, repro.models, repro.data; \
	print('docs-check: all documented packages import cleanly')"
	PYTHONPATH=src $(PY) tools/check_docs.py
	PYTHONPATH=src $(PY) tools/gen_api_docs.py --check

# regenerate the API reference after changing runtime docstrings
api-docs:
	PYTHONPATH=src $(PY) tools/gen_api_docs.py

# run every example end-to-end (runtime_serving, fleet_serving,
# elastic_tuning and gateway_serving assert serial equivalence of every
# exported checkpoint, including checkpoints evicted mid-training;
# crash_recovery murders a device worker mid-array and asserts the
# recovered run is bit-identical to an uninterrupted one)
examples:
	PYTHONPATH=src $(PY) examples/quickstart.py
	PYTHONPATH=src $(PY) examples/runtime_serving.py
	PYTHONPATH=src $(PY) examples/fleet_serving.py
	PYTHONPATH=src $(PY) examples/gateway_serving.py
	PYTHONPATH=src $(PY) examples/elastic_tuning.py
	PYTHONPATH=src $(PY) examples/crash_recovery.py
	PYTHONPATH=src $(PY) examples/partial_fusion.py
	PYTHONPATH=src $(PY) examples/hfht_tuning.py
	PYTHONPATH=src $(PY) examples/dcgan_array.py
	PYTHONPATH=src $(PY) examples/pointnet_hp_sweep.py
