# Convenience targets for the reproduction repository.

PYTHON ?= python3

.PHONY: install test test-log bench bench-log bench-quick perf golden scale-gate examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-log:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-log:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-quick: golden
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repository benchmark: end-to-end and per-layer performance.
perf:
	$(PYTHON) perfbench/run.py

# Fixed-seed golden replay check (benchmarks/golden_hotpath.json).
golden:
	PYTHONPATH=src $(PYTHON) benchmarks/golden_replay.py

# On-runner scale-feature budgets (telemetry overhead, parallel sweep).
scale-gate:
	PYTHONPATH=src $(PYTHON) scripts/scale_gate.py

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results \
	       $$(find . -name __pycache__ -type d)
