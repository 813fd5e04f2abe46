# Exercise the full stack in one command each.
#
#   make test        - tier-1 test suite (the roadmap's verify command)
#   make test-parity - cross-backend parity + store eviction suites only
#   make test-serve  - async serving front end suite only
#   make test-dist   - distributed queue suite only (broker, workers,
#                      fault injection, worker store write-through)
#   make test-soak   - minutes-scale chaos-soak scenarios (supervised
#                      fleet under seeded kills/corruption/eviction)
#   make test-obs    - observability stack only: registry/journal core,
#                      trace analytics, SLO engine
#   make fleet-smoke - end-to-end fleet serving: a supervised worker
#                      fleet plus a broker-dispatch AsyncServer on one
#                      spool, answers checked against a serial run
#   make docs-check  - docs gate: docstring coverage floor on the
#                      runtime + docs/README link & anchor integrity
#   make lint        - ruff check + format check (CI installs ruff;
#                      locally it must be on PATH)
#   make bench-smoke - one fast benchmark: runtime scaling (parity + cache)
#   make bench-serve - serving latency benchmark (5x cache-hit bar)
#   make bench-gate  - run the JSON-emitting benchmarks on the parent
#                      commit and on this checkout, interleaved, and fail
#                      when a metric is worse than its parent by more
#                      than max(20%, spread) (docs/ARCHITECTURE.md,
#                      "Profiling and the benchmark gate")
#   make sweep-smoke - tiny 2-point design-space sweep through the CLI,
#                      run once per backend to demonstrate bit-identical
#                      tables and the shared-store hit path
#   make profile-smoke - hot-path profile of a small workload via the CLI
#   make fuzz-kernels - kernel parity fuzz matrix (reference vs numpy vs
#                      numba when importable) over adversarial draws
#   make loc         - line totals of src/repro/runtime/ and of the paper
#                      model (src/repro/{hw,energy,events,snn})
#   make bench       - the full benchmark suite (slow)
#   make clean-cache - drop the CLI's default on-disk result store

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-parity test-serve test-dist test-soak test-obs fleet-smoke docs-check \
        lint bench-smoke bench-serve bench-gate sweep-smoke \
        profile-smoke fuzz-kernels loc bench clean-cache

test:
	$(PYTHON) -m pytest -x -q

test-parity:
	$(PYTHON) -m pytest tests/test_backend_parity.py tests/test_store_eviction.py -q

test-serve:
	$(PYTHON) -m pytest tests/test_serve.py -q

test-dist:
	$(PYTHON) -m pytest tests/test_dist.py -q

test-soak:
	$(PYTHON) -m pytest tests/test_chaos_soak.py tests/test_supervisor.py -q --run-soak

test-obs:
	$(PYTHON) -m pytest tests/test_obs.py tests/test_tracequery.py tests/test_slo.py -q

fleet-smoke:
	$(PYTHON) tools/fleet_serve_smoke.py --workdir .ci_fleet

docs-check:
	$(PYTHON) tools/check_docs.py

lint:
	ruff check .
	ruff format --check .

bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_runtime_scaling.py -q

bench-serve:
	$(PYTHON) -m pytest benchmarks/bench_serve_latency.py -q

bench-gate:
	$(PYTHON) tools/bench_compare.py

profile-smoke:
	$(PYTHON) -m repro profile --per-class 1 --max-samples 4 --quiet

fuzz-kernels:
	$(PYTHON) -m repro.hw.fuzz 200 --kernels

sweep-smoke:
	$(PYTHON) -m repro sweep --slices 4,8 --backend process --workers 2 --cache-dir .repro_cache_smoke
	$(PYTHON) -m repro sweep --slices 4,8 --backend thread --cache-dir .repro_cache_smoke
	$(PYTHON) -m repro sweep --slices 4,8 --backend serial --cache-dir .repro_cache_smoke
	$(PYTHON) -m repro sweep --slices 4,8 --backend cluster --workers 2 --cache-dir .repro_cache_smoke
	$(PYTHON) -m repro cache stats --cache-dir .repro_cache_smoke

loc:
	@printf 'runtime: '; find src/repro/runtime -name '*.py' -exec cat {} + | wc -l
	@printf 'model:   '; find src/repro/hw src/repro/energy src/repro/events src/repro/snn \
	    -name '*.py' -exec cat {} + | wc -l

bench:
	$(PYTHON) -m pytest benchmarks/ -q

clean-cache:
	$(PYTHON) -m repro cache clear
	rm -rf .repro_cache_smoke
