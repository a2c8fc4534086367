# Developer entry points. Everything runs against the src/ layout via
# PYTHONPATH so no install step is required (pip install -e . also works
# now that setup.py declares package_dir).

PY ?= python
PYPATH := PYTHONPATH=src

.PHONY: test stress stress-faults stress-tenancy test-proc test-asyncio bench-smoke bench-dispatch bench-e2e-smoke reproduce lint loc reach examples

## tier-1 test suite (the driver's acceptance gate)
test:
	$(PYPATH) $(PY) -m pytest -x -q

## overlap stress: rerun the concurrency-sensitive suites (the backend
## conformance table: overlap, admission policies, routing, deadlines
## and faults on every backend; per-ticket deadlines; the pipeline ride — pieces
## hopping stages on one activity while others queue on the monitors,
## on threads and on real workers — the splitter carrying its last
## piece, and the optimisation
## aspects — the shared-cache lock and replica builds race real
## threads) 5x with the pytest cache disabled, to surface flakes and
## hangs that a single ordered run hides.  CI wraps this in a hard
## timeout-minutes so a hung untimed wait fails the job instead of
## stalling it.
stress:
	@for i in 1 2 3 4 5; do \
		echo "--- stress round $$i/5 ---"; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/parallel/test_backend_conformance.py \
			tests/parallel/test_deadlines.py \
			tests/parallel/test_pipeline_ride.py \
			tests/parallel/test_carried_piece.py \
			tests/parallel/test_optimisation.py || exit 1; \
	done

## fault-injection stress: rerun the whole fault matrix 5x — the
## tests/faults suites (schedule determinism, retry-collector
## properties, kill-and-replace recovery, golden trace) plus the fault
## cells of the backend conformance table (every strategy, armed and
## unarmed, on every backend), its makespan rows (a retry-armed gather
## still runs a call's pieces at once) and the proc-site cells of the
## co-location table (every placement topology).  Kills
## and respawns are timing-sensitive by construction; 5 rounds with the
## cache disabled surface interleavings a single run hides.  CI wraps
## this in a hard timeout-minutes so a lost wakeup (a hang, not a
## failure) still fails the job fast.
stress-faults:
	@for i in 1 2 3 4 5; do \
		echo "--- fault stress round $$i/5 ---"; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/faults || exit 1; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/parallel/test_backend_conformance.py \
			-k "fault or makespan" || exit 1; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/parallel/test_process_colocation.py \
			-k "ProcFaults" || exit 1; \
	done

## tenancy/traffic stress: rerun the slot table's policy-case table
## (one table, run against the deployment's controller and the cluster
## scheduler; its block rows park real threads), the cluster-scheduler
## suites (stride hand-offs race real threads), the sim fairness
## scenarios, and the traffic determinism tests 5x with the cache
## disabled.  CI wraps this in a hard timeout-minutes so a lost hand-off
## wakeup (a hang, not a failure) fails the job fast.
stress-tenancy:
	@for i in 1 2 3 4 5; do \
		echo "--- tenancy stress round $$i/5 ---"; \
		$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
			tests/runtime/test_admission.py \
			tests/tenancy tests/traffic \
			tests/faults/test_shed_retry.py || exit 1; \
	done

## out-of-process backend subset: the backend pairing rules (one case
## table, also in test-asyncio), worker lifecycle + crash fail-fast
## and the reply wait (death watch, deadline granularity, fd census),
## the frames on the pipe (the reader's kept bytes, a frame cut short
## by a death), one request per pack, the CPU farm's 2x over threads
## (on 4+ usable CPUs), and the hop's budget as counts, the wire-format
## round-trips, the co-location case table (the
## same cells on one, two and a worker per stage), the pipeline ride,
## the carried last piece, and the process column of the backend
## conformance table (overlap, admission, deadline and fault cells on
## resident worker processes).  CI wraps this in a hard
## timeout-minutes: a hang here means a pipe wait without a liveness
## check, and must fail fast instead of stalling the job.
test-proc:
	$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
		tests/api/test_backend_rules.py \
		tests/runtime/test_procbackend.py \
		tests/runtime/test_proc_framing.py \
		tests/runtime/test_process_hop_budget.py \
		tests/middleware/test_serialize_roundtrip.py \
		tests/parallel/test_process_colocation.py \
		tests/parallel/test_pipeline_ride.py \
		tests/parallel/test_carried_piece.py
	$(PYPATH) $(PY) -m pytest -q -p no:cacheprovider \
		tests/parallel/test_backend_conformance.py -k process

## asyncio backend subset, the test-proc of this backend: the pairing
## rules' case table, its unit suite (loop crossings, the event's thread-to-loop hand-over, task
## cancellation), the asyncio column of the backend conformance table
## (overlap, admission, deadline and fault cells on loop tasks), and the
## webhook example — all with asyncio's debug mode on and
## RuntimeWarning an error.  Debug mode raises on a non-thread-safe loop
## call made off the loop thread, the one mistake a hand-written bridge
## can make.  A coroutine nobody awaited warns from its finalizer, where
## an error cannot propagate: pytest reports it as an unraisable
## exception, which is an error here too (the example prints it).  CI
## wraps this in a hard timeout-minutes: a lost wakeup is a hang, and
## must fail fast instead of stalling the job.
test-asyncio:
	PYTHONASYNCIODEBUG=1 $(PYPATH) $(PY) -W error::RuntimeWarning \
		-m pytest -q -p no:cacheprovider \
		-W error::pytest.PytestUnraisableExceptionWarning \
		tests/api/test_backend_rules.py \
		tests/runtime/test_asyncio_backend.py
	PYTHONASYNCIODEBUG=1 $(PYPATH) $(PY) -W error::RuntimeWarning \
		-m pytest -q -p no:cacheprovider \
		-W error::pytest.PytestUnraisableExceptionWarning \
		tests/parallel/test_backend_conformance.py -k asyncio
	PYTHONASYNCIODEBUG=1 $(PYPATH) $(PY) -W error::RuntimeWarning \
		examples/webhook_async.py

## quick benchmark pass, timings off and nothing recorded: the E4
## dispatch table (its inline asserts: one joinpoint per pack, no
## interpreter call on a compiled chain) and the tenancy overload
## scenarios (their fairness and no-starvation asserts).  The numbers
## that gate are counts in tier-1 (benchmarks/README.md lists where each
## retired timing pair went).
bench-smoke:
	$(PYPATH) $(PY) -m pytest -q --benchmark-disable \
		benchmarks/bench_aop_dispatch.py benchmarks/bench_tenancy.py

## full E4 dispatch benchmark with the default (paper-scale) knobs
bench-dispatch:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_aop_dispatch.py -q \
		--benchmark-sort=name

## the paper's own figures, at the DEFAULT (paper-scale) knobs: Fig. 16
## (overhead), Fig. 17 and Table 1 (module combinations), each with its
## shape assertions, on the simulator (~2 min), with --benchmark-disable
## (the assertions are the point, not the timings).  Small knobs
## (REPRO_BENCH_MAXIMUM=200000 REPRO_BENCH_PACKS=8) are NOT an option
## here: they fail the Fig. 16 and Fig. 17 shape checks
## (benchmarks/README.md).
reproduce:
	$(PYPATH) $(PY) -m pytest --benchmark-disable \
		benchmarks/bench_fig16_overhead.py \
		benchmarks/bench_fig17_combinations.py \
		benchmarks/bench_table1_combinations.py

## end-to-end benchmark smoke: all four workloads of benchmarks/e2e on
## the real thread/process/asyncio backends, traced and untraced, on
## tiny op counts (~15 s).  Checks that every metric BENCHMARK.json
## declares is emitted, every reply is right and nothing leaks; it
## measures nothing (benchmarks/e2e/README.md has the measuring runs).
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke

## run every example headless, in sequence, failing fast on the first
## broken one.  The examples double as end-to-end smoke tests of the
## documented API surface (each asserts its own invariants and exits
## non-zero on drift), so CI runs this target to keep README/docs
## snippets honest.
examples:
	@set -e; for ex in examples/*.py; do \
		echo "--- $$ex ---"; \
		$(PYPATH) $(PY) $$ex; \
	done
	@echo "examples ok"

## syntax, docs and import lint: the container ships no third-party
## linter, so this byte-compiles every tree (catches syntax errors,
## tabs/space mixes), enforces that every public module in src/repro has
## a module docstring, and fails on a top-level import under src/repro
## that its module never reads.  Swap in ruff/flake8 here when the
## toolchain gains one.  The bytecode goes to a throwaway prefix and is
## removed: compileall writes it even under PYTHONDONTWRITEBYTECODE, and
## a tree holding __pycache__ imports faster (setup_s reads ~40 % lower),
## so lint must not change the cache state of the tree it checks.
lint:
	@cache=$$(mktemp -d); \
	PYTHONPYCACHEPREFIX=$$cache $(PY) -m compileall -q src tests benchmarks examples tools; \
	status=$$?; rm -rf $$cache; exit $$status
	@echo "lint ok (compileall)"
	$(PY) tools/lint_docstrings.py
	$(PY) tools/lint_imports.py

## lines of Python under src/ — the number every PR states with its
## +/- counts (ROADMAP item 6: it should go down).  A gate: prints the
## count and fails above LOC_CEILING, the count of the last PR that
## moved it — a PR that grows src/ raises the ceiling in the same diff
## and says why in CHANGES.md, one that shrinks it lowers the ceiling.
LOC_CEILING := 17097
loc:
	@count=$$(find src -name '*.py' | xargs cat | wc -l); echo $$count; \
	if [ $$count -gt $(LOC_CEILING) ]; then \
		echo "src/ is $$count lines, over LOC_CEILING = $(LOC_CEILING) (Makefile): delete, or raise it and justify" >&2; \
		exit 1; \
	fi

## reachability census (tools/reach.py): runs the product paths — make
## examples, bench-e2e-smoke and bench-smoke, which must pass, and the
## Fig. 16, Fig. 17, Table 1, middleware and ablation benches at small
## knobs — with a trace hook in every interpreter, thread and forked
## worker, and lists the top-level functions and methods under src/repro
## that none of them ran, by package and by definition.  Small knobs fail
## the Fig. 16/17 shape assertions: those runs count for reachability
## only, and their failures do not fail this target (make reproduce
## gates the shapes).  A gate like loc: fails when the unreached lines
## exceed UNREACHED_CEILING, which each PR that moves the count lowers
## (or raises, and says why in CHANGES.md).  Not tier-1: it runs the
## product paths (~45 s), not the tests.
UNREACHED_CEILING := 1743
reach:
	$(PY) tools/reach.py $(UNREACHED_CEILING)
