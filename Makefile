# Developer entry points.  PYTHONPATH=src everywhere: the package is laid
# out src/ style and the offline container has no editable install.

PY := PYTHONPATH=src python

.PHONY: test test-slow check bench bench-quick bench-pytest bench-selftest simulate docs-check coverage

# Tier-1: fast, deterministic, no benchmarks (see pytest.ini).
test:
	$(PY) -m pytest -x -q

# Just the @slow suites (CI's nightly job): full 200-seed segmented
# parity at aggressive freeze cadence, chaos soak, the executor x
# drain-cadence parity sweep, the analysis-record vs no-record seed
# sweep, full simulate runs.
test-slow:
	$(PY) -m pytest -m slow -q

# CI gate: tier-1 tests, a bench smoke run (scratch output, so the
# committed BENCH_parse.json and its pinned seed baseline stay put),
# the corpus-subsystem coverage floor, and classbench's deterministic
# self-tests.
check: test bench-quick coverage bench-selftest

# classbench's deterministic self-tests: the seeded trace generator and
# the run digest every benchmark comparison relies on (~4 s).  The
# workload smoke test (classbench/tests/test_smoke.py) stays out: its
# traced `served` coverage check is timing-sensitive (see ROADMAP.md).
bench-selftest:
	$(PY) -m pytest -q classbench/tests/test_tracegen.py classbench/tests/test_digest.py

# Line-coverage floor over src/repro/corpus (stdlib tracer, offline;
# fails on regression below the floor in tools/coverage_gate.py).
coverage:
	$(PY) tools/coverage_gate.py

# Markdown link check over README.md + docs/ (offline, stdlib-only;
# exit status = number of broken links, capped at 100; 0 = clean).
docs-check:
	python tools/docs_check.py

# Deterministic perf harness; writes BENCH_parse.json at the repo root.
bench:
	$(PY) -m repro bench

# Smoke check: 10% iteration counts, written to a scratch path so the
# committed BENCH_parse.json (and its pinned seed baseline) stays put.
# Includes the parallel_drain workload, so every CI run exercises a
# 4-worker thread-pool drain end to end (fork, merge, rebase), and the
# serving workload, so every CI run boots the live HTTP front door
# under 4 concurrent clients, on top of the unit suites.
bench-quick:
	$(PY) -m repro bench --quick --output $${TMPDIR:-/tmp}/BENCH_quick.json

# The statistically careful pytest-benchmark suites (figures + scalability).
bench-pytest:
	$(PY) -m pytest benchmarks -q

simulate:
	$(PY) -m repro simulate
