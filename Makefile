.PHONY: install test bench bench-fast bench-ff examples smoke faults-smoke campaign-smoke chaos-smoke trace-smoke lint lint-flow lint-changed lint-timing clean

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

examples:
	for f in examples/*.py; do echo "== $$f =="; python $$f || exit 1; done

smoke:
	PYTHONPATH=src python -m pytest tests/ -q -x -k "not matrix and not Matrix"

# Worker processes for the per-file lint pass (0 = one per CPU).
LINT_JOBS ?= 4

lint:
	PYTHONPATH=src python -m repro.lint src/repro examples --jobs $(LINT_JOBS)
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "mypy not installed; skipping type check (CI runs it)"; \
	fi

lint-flow:
	PYTHONPATH=src python -m repro.lint src/repro examples --check-suppressions --jobs $(LINT_JOBS)
	@mkdir -p build
	PYTHONPATH=src python -m repro.lint src/repro examples --format sarif > build/reprolint.sarif
	@echo "SARIF report written to build/reprolint.sarif"

# Lint only the Python files changed vs origin/main (falls back to main,
# then to a full lint when no merge base exists, e.g. shallow clones).
# NOTE: the flow rules see only the changed files, so cross-module
# findings need the full `make lint` — this target is the fast local
# pre-commit loop, not the gate.
lint-changed:
	@base=$$(git merge-base HEAD origin/main 2>/dev/null \
		|| git merge-base HEAD main 2>/dev/null); \
	if [ -z "$$base" ]; then \
		echo "lint-changed: no merge base; linting the full tree"; \
		PYTHONPATH=src python -m repro.lint src/repro examples; \
		exit $$?; \
	fi; \
	files=$$(git diff --name-only --diff-filter=d "$$base" \
			-- 'src/repro/*.py' 'examples/*.py'; \
		git ls-files --others --exclude-standard \
			-- 'src/repro/*.py' 'examples/*.py'); \
	files=$$(echo "$$files" | sort -u | while read -r f; do \
		[ -f "$$f" ] && echo "$$f"; done); \
	if [ -z "$$files" ]; then \
		echo "lint-changed: no Python files changed vs $$base"; \
	else \
		echo "$$files" | tr '\n' ' '; echo; \
		PYTHONPATH=src python -m repro.lint $$files; \
	fi

# Warm-cache lint wall-clock budget (CI guard: a summary-table or rule
# regression that makes `make lint` crawl fails here, not in review).
lint-timing:
	PYTHONPATH=src python scripts/lint_timing.py

faults-smoke:
	PYTHONPATH=src python -m repro faults --lines 128 --endurance 400 \
		--writes 30000 --ecp 2 --read-disturb 1e-5 --seed 7
	PYTHONPATH=src python -m repro faults --side-channel --seed 7

# Kill-and-resume exercise of the campaign orchestrator: start the example
# fault grid, cut it short after 3 of its 8 tasks (a controlled "crash"),
# verify the directory reports incomplete, resume to completion, and render
# the aggregated report.  The interrupted run and status MUST exit non-zero.
campaign-smoke:
	rm -rf build/campaign-smoke
	PYTHONPATH=src python -m repro campaign run \
		examples/campaigns/fault_grid.toml \
		--out build/campaign-smoke --workers 2 --max-tasks 3 --quiet; \
		test $$? -eq 1
	PYTHONPATH=src python -m repro campaign status build/campaign-smoke; \
		test $$? -eq 1
	PYTHONPATH=src python -m repro campaign resume build/campaign-smoke \
		--workers 2 --quiet
	PYTHONPATH=src python -m repro campaign status build/campaign-smoke
	PYTHONPATH=src python -m repro campaign report build/campaign-smoke \
		--format csv --output build/campaign-smoke/report.csv
	@test -s build/campaign-smoke/report.csv && echo "campaign-smoke: OK"

# Distributed-campaign disaster drill: serve + 2 workers, SIGKILL one
# worker mid-lease AND the coordinator mid-campaign, compact, resume on a
# fresh port, and require the final aggregate byte-identical to a serial
# run (plus index-only resume — no JSONL re-scan).  See the script.
chaos-smoke:
	PYTHONPATH=src python scripts/chaos_smoke.py

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
