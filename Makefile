# Convenience targets for the TWL reproduction.

.PHONY: install test lint typecheck bench bench-quick quick-parallel quick-resilient quick-sanitized quick-softerrors quick-stream quick-chaos quick-serve examples report clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Full lint gate: ruff (style/pyflakes/isort) + mypy on the typed core
# + the repo's own two-phase analyzer (per-file determinism rules
# TWL001-TWL007 plus the project-wide rules TWL008-TWL011, see
# docs/invariants.md).  ruff/mypy are dev extras;
# when absent locally the corresponding step is skipped with a notice
# (CI installs both).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed, skipping (pip install -e .[dev])"; \
	fi
	@$(MAKE) --no-print-directory typecheck
	PYTHONPATH=src python -m repro.devtools.lint

# mypy over the typed core only (repro.rng / repro.config / repro.exec
# / repro.engine / repro.errors / repro.devtools); legacy packages are
# followed silently per the [tool.mypy] table in pyproject.toml.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "typecheck: mypy not installed, skipping (pip install -e .[dev])"; \
	fi

# Both bench targets time computation, not cache reads: each run gets
# a fresh, empty result cache (a plain `pytest benchmarks/` serves from
# the default one, which an earlier run may have filled).
bench:
	CACHE=$$(mktemp -d) && TWL_REPRO_CACHE_DIR=$$CACHE pytest benchmarks/ --benchmark-only; \
	status=$$?; rm -rf "$$CACHE"; exit $$status

bench-quick:
	CACHE=$$(mktemp -d) && TWL_REPRO_CACHE_DIR=$$CACHE REPRO_QUICK=1 pytest benchmarks/ --benchmark-only; \
	status=$$?; rm -rf "$$CACHE"; exit $$status

# Smoke the parallel executor path end-to-end (also covered by
# tests/test_exec.py so it stays green under tier-1).
quick-parallel:
	PYTHONPATH=src python -m repro.cli fig6 --quick --jobs 2

# Smoke the fault-tolerance layer end-to-end: deterministic fault
# injection makes every cell fail once with a transient error, and the
# retry budget carries the campaign to completion with bit-identical
# results (see docs/robustness.md; also covered by
# tests/test_resilience.py).
quick-resilient:
	STATE=$$(mktemp -d) && \
	REPRO_FAULTS="{\"mode\": \"transient\", \"rate\": 1.0, \"times\": 1, \"state_dir\": \"$$STATE\"}" \
	PYTHONPATH=src python -m repro.cli fig6 --quick --jobs 2 --retries 2 --no-cache

# Smoke the runtime determinism sanitizer end-to-end: every cell runs
# with the random/np.random global entry points booby-trapped, proving
# dynamically that no global RNG state leaks into results (also
# covered by tests/test_lint.py; see docs/invariants.md).
quick-sanitized:
	REPRO_SANITIZE=1 PYTHONPATH=src python -m repro.cli fig6 --quick --jobs 2 --no-cache

# Smoke the controller soft-error layer end-to-end: the resilience
# sweep (scheme × protection × rate) under the determinism sanitizer,
# with parity/SECDED cells running under the runtime invariant checker
# (see docs/robustness.md; also covered by tests/test_softerrors.py).
quick-softerrors:
	REPRO_SANITIZE=1 PYTHONPATH=src python -m repro.cli resilience --quick --jobs 2 --no-cache

# Smoke the streaming workload pipeline end-to-end: the FTL dynamic
# generator through every Figure-8 scheme, then the constant-memory
# guarantee — post-warmup peak-RSS growth under a hard ceiling while
# millions of streamed requests flow (see docs/workloads.md; also
# covered by tests/test_streams.py and tests/test_engine_identity.py).
quick-stream:
	PYTHONPATH=src python -m repro.cli stream --quick --no-cache
	PYTHONPATH=src python benchmarks/stream_rss_check.py

# Smoke the crash-consistency layer end-to-end: a deterministic mid-run
# SIGKILL takes a worker down after 50k demand writes, the pool
# rebuilds, and the killed cell resumes from its last committed
# snapshot — all under the runtime determinism sanitizer, with results
# bit-identical to an uninterrupted campaign (see docs/robustness.md;
# the per-scheme matrix is tests/test_snapshot_identity.py and the
# subprocess SIGKILL proof is tests/test_resilience.py).
quick-chaos:
	STATE=$$(mktemp -d) && CACHE=$$(mktemp -d) && \
	REPRO_FAULTS="{\"mode\": \"kill\", \"rate\": 1.0, \"times\": 1, \"max_total\": 1, \"kill_at_demand\": 50000, \"state_dir\": \"$$STATE\"}" \
	REPRO_SANITIZE=1 \
	PYTHONPATH=src python -m repro.cli stream --quick --jobs 2 \
		--cache-dir "$$CACHE" --snapshot-every 20000 \
		--resume "$$STATE/resume"

# Smoke the campaign service end-to-end: a real `twl-repro serve`
# process on a UNIX socket, the seeded chaos load generator (duplicate
# resubmissions, malformed/oversized frames, disconnects, slow-loris),
# a SIGKILL of the server mid-campaign, and a restart on the same
# state dir that must resume every session — with all surviving
# responses bit-identical to serial execution (see docs/serving.md;
# the in-process mechanism tests are tests/test_serve.py).
quick-serve:
	PYTHONPATH=src python benchmarks/serve_chaos_check.py --quick

examples:
	python examples/quickstart.py
	python examples/attack_anatomy.py
	python examples/parsec_lifetime.py
	python examples/design_space.py
	python examples/custom_scheme.py
	python examples/wear_timeline.py
	python examples/figure_gallery.py

report:
	python -m repro.cli report --output report.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
