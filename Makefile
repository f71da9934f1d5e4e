.PHONY: install test bench bench-fast bench-ff bench-outputs bench-outputs-diff examples smoke faults-smoke campaign-smoke trace-smoke lint clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/ -q

bench:
	pytest benchmarks/ --benchmark-only -s

# Batched-vs-scalar engine throughput: asserts bit-identical results and
# batched >= scalar on every scheme, then writes BENCH_5.json at the repo
# root (the committed copy documents the reference-machine numbers).
bench-fast:
	PYTHONPATH=src python -m pytest benchmarks/test_engine_throughput.py -q -s
	@test -s BENCH_5.json && echo "bench-fast: OK"

# Analytic fast-forward tier vs the chunk engine on lifetime-to-failure:
# asserts >= 50x effective throughput at 256Ki lines and simulates a
# 2^23-line device to end of life, then writes BENCH_10.json at the repo
# root (the committed copy documents the reference-machine numbers).
bench-ff:
	PYTHONPATH=src python -m pytest benchmarks/test_fastforward_throughput.py -q -s
	@test -s BENCH_10.json && echo "bench-ff: OK"

# Bit-identity fingerprint of the benchmark: the `outputs (seed S)` line
# (wear_sha256 included) of every BENCHMARK.json workload at seeds 7 and 8.
# Run it on two commits and `diff` the two build/bench-outputs.txt files.
BENCH_WORKLOADS = $(shell python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")

bench-outputs:
	@mkdir -p build
	@for seed in 7 8; do for w in $(BENCH_WORKLOADS); do \
		python3 bench/run.py --workload $$w --seed $$seed --seconds 1 \
			| grep '^outputs (seed' | sed "s/^/$$w /" || exit 1; \
	done; done > build/bench-outputs.txt
	@echo "bench-outputs: wrote build/bench-outputs.txt"

# bench-outputs of commit $(BASE), run in a `git archive` of it under
# build/bench-base, diffed against this tree's: the diff is empty when a
# change keeps every benchmark output bit-identical.
BASE ?= origin/main

bench-outputs-diff: bench-outputs
	@rm -rf build/bench-base && mkdir -p build/bench-base
	@git archive $(BASE) | tar -x -C build/bench-base
	@$(MAKE) --no-print-directory -C build/bench-base bench-outputs
	@diff build/bench-base/build/bench-outputs.txt build/bench-outputs.txt \
		&& echo "bench-outputs-diff: identical to $(BASE)"

examples:
	for f in examples/*.py; do echo "== $$f =="; python $$f || exit 1; done

smoke:
	PYTHONPATH=src python -m pytest tests/ -q -x -k "not matrix and not Matrix"

# CI's lint command: every rule over the gated tree, stale pragmas
# included, then mypy where it is installed.
lint:
	PYTHONPATH=src python -m repro.lint src/repro examples --check-suppressions
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping type check (CI runs it)"; \
	fi

faults-smoke:
	PYTHONPATH=src python -m repro faults --lines 128 --endurance 400 \
		--writes 30000 --ecp 2 --read-disturb 1e-5 --seed 7
	PYTHONPATH=src python -m repro faults --side-channel --seed 7

# Kill-and-resume exercise of the campaign orchestrator: start the example
# fault grid, cut it short after 3 of its 8 tasks (a controlled "crash"),
# verify the directory reports incomplete, compact it into the sqlite
# index, resume to completion from the index, and render the aggregated
# report.  The interrupted run and status MUST exit non-zero.
campaign-smoke:
	rm -rf build/campaign-smoke
	PYTHONPATH=src python -m repro campaign run \
		examples/campaigns/fault_grid.toml \
		--out build/campaign-smoke --workers 2 --max-tasks 3 --quiet; \
		test $$? -eq 1
	PYTHONPATH=src python -m repro campaign status build/campaign-smoke; \
		test $$? -eq 1
	PYTHONPATH=src python -m repro campaign compact build/campaign-smoke
	PYTHONPATH=src python -m repro campaign resume build/campaign-smoke \
		--workers 2 --quiet
	PYTHONPATH=src python -m repro campaign status build/campaign-smoke
	PYTHONPATH=src python -m repro campaign report build/campaign-smoke \
		--format csv --output build/campaign-smoke/report.csv
	@test -s build/campaign-smoke/report.csv && echo "campaign-smoke: OK"

# Traffic-layer proof: convert the bundled MSR-style CSV to .rbt (bytes
# must match the committed fixture), replay it chunked == entry-wise on
# Security RBSG, drive a 1000-tenant mixed population to a lifetime
# JSON, and require the tenant-lifetime example grid byte-identical
# serial vs --workers 2.  See the script.
trace-smoke:
	PYTHONPATH=src python scripts/trace_smoke.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
