# Convenience targets for the RPSLyzer reproduction.

PYTHON ?= python

.PHONY: install test ci chaos-smoke chaos-serve perf-regression bench-smoke bench examples figures lint-world clean

install:
	pip install -e . --no-build-isolation || \
	  echo "$(CURDIR)/src" > $$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro.pth

test:
	$(PYTHON) -m pytest tests/

# Mirror .github/workflows/ci.yml locally: lint (when ruff is present),
# tier-1 (tests/conftest.py fails a run that leaves files behind), the
# resident-daemon smoke (its SIGTERM is sent with an idle HTTP and a
# half-line WHOIS connection open: exit 0, EOF on both, no traceback),
# the serve job's test suite (an un-awaited coroutine fails it),
# the chaos-smoke job's two CLI steps (its fault-injection tests,
# tests/chaos, already ran in tier-1), the chaos-serve job,
# the end-to-end ledger's correctness gates, and the strict perf gates.
ci:
	@if command -v ruff >/dev/null 2>&1; then \
	  ruff check src tests; \
	else \
	  echo "ruff not installed; skipping lint"; \
	fi
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_serve.py tests/test_session.py \
	  tests/test_serve_core.py -q -p no:cacheprovider -W error::RuntimeWarning \
	  -W error::pytest.PytestUnraisableExceptionWarning
	$(MAKE) chaos-smoke
	$(MAKE) chaos-serve
	$(MAKE) bench-smoke
	$(MAKE) perf-regression

# The strict perf benchmarks (incremental delta ingestion, serve
# telemetry), then what they measured diffed against
# benchmarks/baselines.json (a slide past a gated metric's tolerance
# fails).  After an intentional perf change, re-pin:
#   python scripts/check_perf_regression.py --bench <name> --update
perf-regression:
	PYTHONPATH=src RPSLYZER_PERF_STRICT=1 $(PYTHON) -m pytest \
	  benchmarks/test_perf_delta.py -q -p no:cacheprovider
	$(PYTHON) scripts/check_perf_regression.py --bench delta_ingest
	PYTHONPATH=src RPSLYZER_PERF_STRICT=1 $(PYTHON) -m pytest \
	  benchmarks/test_perf_serve_telemetry.py -q -p no:cacheprovider
	$(PYTHON) scripts/check_perf_regression.py --bench serve_telemetry

# The end-to-end ledger (benchmarks/e2e, BENCHMARK.json) for its exit
# code only: the harness self-tests, then one short churn run whose
# golden-count, pass-agreement and fresh-compile gates must hold (verdict
# plans carried across its journals included), then
# one short verify_table run — the hop cache cold per call, the rule plans
# the index generation's, a verdict plan answering its checks before the
# hop cache — against the golden verdict digest, hop
# histogram and the differential against a fresh verifier, which checks
# those shared plans, then
# one short ingest run — the IR codec on the real open path: cold/warm
# digest parity, cached-artifact adoption, golden object counts, then
# one short serve run — the daemon as a subprocess: every /verify body
# byte-identical pass to pass, every `text` and WHOIS `!v` answer equal to
# the in-process report.  No timing is asserted here — perf claims are
# made against the ledger.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e/tests -q -p no:cacheprovider
	$(PYTHON) benchmarks/e2e/run.py --workload churn --seed 7 --seconds 4 --trace 0
	$(PYTHON) benchmarks/e2e/run.py --workload verify_table --seed 7 --seconds 4 --trace 0
	$(PYTHON) benchmarks/e2e/run.py --workload ingest --seed 7 --seconds 4 --trace 0
	$(PYTHON) benchmarks/e2e/run.py --workload serve --seed 7 --seconds 4 --trace 0

# The chaos-smoke job's CLI steps, in a temporary directory removed
# afterwards: explain the tiny world's first route with tracing forced on
# (the AS_SET segment dropped from its path, never fused into one ASN),
# then compile the IR exported compact and with indent=2: both compiles
# must name the same IR digest.
chaos-smoke:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	export PYTHONPATH=$(CURDIR)/src; \
	$(PYTHON) -m repro.cli synth "$$dir/world" --preset tiny --routes; \
	$(PYTHON) -m repro.cli parse "$$dir/world" -o "$$dir/ir.json"; \
	route=$$(head -1 "$$dir/world/table.txt"); \
	prefix=$$(echo "$$route" | cut -d'|' -f6); \
	aspath=$$(echo "$$route" | cut -d'|' -f7 | sed 's/ *{.*}//'); \
	$(PYTHON) -m repro.cli explain --ir "$$dir/ir.json" --as-rel "$$dir/world/as-rel.txt" \
	  $$prefix $$aspath; \
	$(PYTHON) -c "import sys; from repro.ir.json_io import dumps_ir, load_ir; \
	  open(sys.argv[2], 'w').write(dumps_ir(load_ir(sys.argv[1]), indent=2))" \
	  "$$dir/ir.json" "$$dir/ir-indent2.json"; \
	for layout in ir ir-indent2; do \
	  $(PYTHON) -m repro.cli compile --ir "$$dir/$$layout.json" -o "$$dir/index-$$layout.pkl" \
	    > "$$dir/compile-$$layout.txt" 2>&1; \
	  cat "$$dir/compile-$$layout.txt"; \
	done; \
	compact=$$(grep -o 'compiled index for IR [0-9a-f]*' "$$dir/compile-ir.txt"); \
	indented=$$(grep -o 'compiled index for IR [0-9a-f]*' "$$dir/compile-ir-indent2.txt"); \
	test -n "$$compact" && test "$$compact" = "$$indented"

# The one supervised worker pool under both of its callers.  Serve
# (tests/chaos/test_serve_pool.py): the self-healing lifecycle against a
# live daemon (SIGKILL mid-flood, heartbeat replacement of a hung worker,
# restart accounting in /metrics and the degradation report).  The table
# pass, Session.verify_table
# (processes=N), in tests/test_parallel.py: exact stats under killed,
# SIGSTOPped and raising workers, no child left behind; in
# tests/test_plan_store.py, a pooled pass equal to the serial one after
# every journal apply.
# Then one table, traced, through the serial pass and a 2-worker pool: same
# summary, same figure CSVs (a merge-order dependence shows up as a diff),
# same `rpslyzer trace` summary, no spill directory left in $$TMPDIR.
chaos-serve:
	PYTHONPATH=src $(PYTHON) -m pytest tests/chaos/test_serve_pool.py tests/test_supervisor.py \
	  tests/test_parallel.py tests/test_serve_core.py tests/test_plan_store.py \
	  -q -p no:cacheprovider -W error::RuntimeWarning \
	  -W error::pytest.PytestUnraisableExceptionWarning
	PYTHONPATH=src PYTHON=$(PYTHON) sh scripts/pool_figures.sh

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every table/figure artifact into benchmarks/results/.
figures: bench
	@ls benchmarks/results/

examples:
	@for script in examples/*.py; do \
	  echo "== $$script"; $(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

# End-to-end CLI walkthrough into ./world-demo.
lint-world:
	$(PYTHON) -m repro synth world-demo --preset tiny --routes
	$(PYTHON) -m repro parse world-demo -o world-demo/ir.json
	$(PYTHON) -m repro lint --ir world-demo/ir.json --as-rel world-demo/as-rel.txt
	$(PYTHON) -m repro verify --ir world-demo/ir.json \
	  --as-rel world-demo/as-rel.txt --table world-demo/table.txt

# Untracked build litter only: benchmarks/results/ is committed.
clean:
	rm -rf world-demo .bench_e2e .benchmarks .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
