"""Import direction of the per-call core: the dispatch ticket, its
collector and the ticket-owner mixin are runtime types, defined in
:mod:`repro.runtime.ticket`, and nothing in the layers below the
skeletons — runtime, middlewares, faults — reaches up into
:mod:`repro.parallel` to name them (or anything else).  With the ticket
a known type, nobody duck-types it either.  Likewise bounded admission:
one slot table in :mod:`repro.runtime.admission`, which the tenant plane
builds on and the runtime never imports back."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.aop.joinpoint import JoinPoint
from repro.parallel import partition
from repro.runtime import ticket

SRC = Path(repro.__file__).resolve().parent
LOWER_LAYERS = ("runtime", "middleware", "faults")
CORE = ("DispatchContext", "ResultCollector")
#: ``repro`` itself and each of its top-level packages and modules
TOP_LEVEL = ["repro"] + sorted(
    f"repro.{path.stem}"
    for path in SRC.iterdir()
    if (path / "__init__.py").exists()
    or (path.suffix == ".py" and path.stem != "__init__")
)


def test_the_per_call_core_is_defined_in_runtime_ticket():
    for name in CORE:
        assert getattr(ticket, name).__module__ == "repro.runtime.ticket"
        # ... and still answers to the name the skeletons always used
        assert getattr(partition, name) is getattr(ticket, name)
    definitions = [
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name in CORE
    ]
    assert definitions == ["runtime/ticket.py"] * len(CORE)


def _imports(path: Path) -> list[str]:
    """Every module a file imports, ``import`` and ``from`` forms both
    (function-level and ``TYPE_CHECKING`` imports included)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            found.append(node.module)
            found.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_lower_layers_do_not_import_the_skeletons():
    upward = [
        f"{path.relative_to(SRC).as_posix()} imports {module}"
        for layer in LOWER_LAYERS
        for path in sorted((SRC / layer).rglob("*.py"))
        for module in _imports(path)
        if module == "repro.parallel" or module.startswith("repro.parallel.")
    ]
    assert upward == []


def test_the_core_does_not_import_numpy():
    """The core is stdlib-only: numpy is the data type the sample apps
    compute on, so only they (and the paper-benchmark harness that
    drives them) import it, in any ``import`` or ``from`` form."""
    importing = [
        f"{path.relative_to(SRC).as_posix()} imports {module}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in ("apps", "bench")
        for module in _imports(path)
        if module == "numpy" or module.startswith("numpy.")
    ]
    assert importing == []


def test_the_skeletons_do_not_import_the_middlewares():
    """The pipeline shows its chain of stages to whoever hosts them, and
    learns how far a run went, through ``runtime.dispatch`` only: the
    partition layer names no middleware."""
    sideways = [
        f"{path.relative_to(SRC).as_posix()} imports {module}"
        for path in sorted((SRC / "parallel" / "partition").rglob("*.py"))
        for module in _imports(path)
        if module == "repro.middleware" or module.startswith("repro.middleware.")
    ]
    assert sideways == []


def test_runtime_does_not_import_the_tenant_plane():
    upward = [
        f"{path.relative_to(SRC).as_posix()} imports {module}"
        for path in sorted((SRC / "runtime").rglob("*.py"))
        for module in _imports(path)
        if module == "repro.tenancy" or module.startswith("repro.tenancy.")
    ]
    assert upward == []


def test_bounded_admission_is_written_once():
    """One slot table: the cluster scheduler and the deployment's
    controller are constructions of ``runtime/admission.py::SlotTable``,
    so the second set of records and helpers is gone, and the three
    overflow policies are told apart in exactly one function."""
    trees = {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    defined = [
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    ]
    for gone in ("TenantGrant", "_BlockedTenant", "_BlockedSubmitter", "AppBuilder"):
        assert gone not in defined
    for once in ("_await_handoff", "_make_event", "_pick_victim_locked"):
        assert defined.count(once) == 1
    policies = {"block", "fail", "shed-oldest"}
    comparing = {
        f"{name}::{function.name}"
        for name, tree in trees.items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        if isinstance(operand, ast.Constant) and operand.value in policies
    }
    assert comparing == {"runtime/admission.py::_admit"}


def test_nobody_duck_types_the_ticket():
    guard = re.compile(r"hasattr\(\s*(context|ctx|ticket)\b")
    guarded = [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if guard.search(line)
    ]
    assert guarded == []


def _trees() -> dict:
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }


def test_no_envelope_and_no_hand_over():
    """The ticket ``submit``/``map`` build before admission is ambient
    itself: no second stack carries a slot to ``dispatch_scope``, and
    nothing is handed from a slot to a ticket after the fact."""
    defined = {
        node.name
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    gone = {"use_envelope", "current_envelope", "adopt_deadline", "adopt_retry"}
    assert defined & gone == set()


def test_one_class_latches_a_cancellation():
    latching = {
        f"{name}::{cls.name}"
        for name, tree in _trees().items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and node.attr == "cancel_cause"
        and isinstance(node.ctx, ast.Store)
    }
    assert latching == {"runtime/ticket.py::DispatchContext"}


def test_ticket_and_admission_import_one_way():
    between = [
        (name, other)
        for name, other in (("admission", "ticket"), ("ticket", "admission"))
        if f"repro.runtime.{other}" in _imports(SRC / "runtime" / f"{name}.py")
    ]
    assert between == [("ticket", "admission")]  # the record names its places


def test_the_app_keeps_no_ticket_table():
    """Every spec opens a ticket and its future carries it, the call's
    one record, so ``api/app.py`` probes nothing, and no live table in
    ``src/`` holds tickets: the app counts its calls in flight on the
    admission table, a split claims the ticket with ``dispatch_scope``
    and enters it nowhere."""
    source = (SRC / "api" / "app.py").read_text()
    assert "hasattr(" not in source and "getattr(self.partition" not in source
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert "DispatchContextOwner" not in text, path
        assert "enter_ticket" not in text and "leave_ticket" not in text, path


def test_one_servant_host_declaration():
    """Which servant host a backend brings is declared once, as
    ``servant_host`` on the backend class, and every per-backend rule
    reads that: no flag beside it, no per-backend validator, no second
    worker registry, and no module telling backends apart by name."""
    trees = _trees()
    gone = {
        "native_async", "wants_backend", "requires_cluster",
        "_validate_process_rules", "_validate_asyncio_rules", "_is_asyncio",
        "_backend_name", "new_worker", "stop_workers",
    }
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)  # getattr(x, "name")
    assert named & gone == set()

    classes = {
        cls.name: cls
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }
    methods = [
        node.name
        for node in classes["ProcessBackend"].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert methods == []
    declaring = {
        name
        for name, cls in classes.items()
        for node in cls.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "servant_host"
    }
    assert declaring == {"ExecutionBackend", "ProcessBackend", "AsyncioBackend"}

    by_name = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for leaf in ast.walk(operand)
        if isinstance(leaf, ast.Constant) and leaf.value in ("thread", "sim", "asyncio")
    ]
    assert by_name == []


def _defined() -> set:
    """Every name ``src/`` defines, imports or exports: classes,
    functions, methods (also as ``Class.method``), import aliases,
    assigned names and ``__all__`` entries."""
    named = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                named.add(node.name)
            if isinstance(node, ast.ClassDef):
                named.update(
                    f"{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                )
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        named.add(target.id)
                        if target.id == "__all__":
                            named.update(
                                leaf.value
                                for leaf in ast.walk(node.value)
                                if isinstance(leaf, ast.Constant)
                            )
    return named


def test_code_only_tests_used_is_gone():
    """The process-wide fault plane, the phase barrier, active objects
    and the simulator's event trace had no caller outside the tests: a
    deployment's schedule rides its tickets, and nothing else needs the
    rest.  The rank API, the in-process middleware, the weaving report
    and the definitions no product path reached (``make reach``) went
    the same way, and so did the pointcut language beyond what is decided
    per shadow: the dynamic designators, the programmatic builders, the
    per-call residue evaluator, the ``cflow`` joinpoint stack, the caller
    capture and the chain interpreter (kept as the tests' oracle).  So
    did every copy of a call's record beside its ticket: the weak ticket
    registry, the app's second ticket table, the trace history, the
    stats snapshots and the cluster report; and so did the second
    copies of one count — the partition's ticket table and its
    counters, the forward, guard and data/control counters, the app's
    module dict and submission count, ``Shadow.compiles``.  The advice
    language is what the product uses, ``around`` only: the
    before/after kinds, their decorators, ``AdviceKind``, the
    joinpoint's result/exception slots and the segmented plan that
    folded them went.  The joinpoint is the chain's one continuation:
    the continuation objects, the per-thread proceed map, the fused
    subclass and the plan stats' restating reads went.  None of them is defined, imported, exported or
    assigned in ``src/``."""
    gone = {
        "install_faults", "remove_faults", "use_faults", "current_faults",
        "_ACTIVE", "_PLANE_LOCK",
        "BarrierAspect", "SimBarrier", "ActiveObject", "Trace", "TraceEvent",
        "CommWorld", "LocalMiddleware", "explain", "weaving_report",
        "bound_entry", "deployed_aspects", "set_default_backend",
        "_AroundCont.__call__", "SimTask.process", "SimLock.locked",
        "SimLock.owner", "ProcMiddleware.servant_of", "ParallelAspect.describe",
        "Within", "Target", "Args", "CFlow", "CFlowBelow", "AdviceExecution",
        "Execution", "TruePointcut", "FalsePointcut", "execution",
        "initialization", "within", "cflow", "cflowbelow", "_coerce",
        "Pointcut.__and__", "Pointcut.__or__", "Pointcut.__invert__",
        "Pointcut.evaluate", "contains_cflow", "needs_caller", "NO", "YES",
        "MAYBE", "ParamsPattern", "_primitive_match", "_split_params",
        "SignaturePattern.matches_args", "SignaturePattern.has_dynamic_residue",
        "TypePattern.from_class", "TypePattern.matches_string",
        "TypePattern.is_wildcard_any", "CallerInfo", "JoinPoint.caller",
        "JoinPoint.target_class", "current_stack", "entered_joinpoint",
        "advice_depth", "resolve_caller", "_tracking_impl", "_is_static",
        "_chain_impl", "run_chain", "Weaver.chain", "Weaver._recompute_cflow",
        "_LIVE", "register_dispatch", "find_dispatch", "dispatch_id",
        "TRACE_HISTORY", "trace_of", "trace_history", "ParallelApp.trace",
        "ParallelApp.traces", "ParallelApp.stats", "ParallelApp._close",
        "AdmissionController.stats", "format_report",
        "before", "after", "after_returning", "after_throwing", "_advice",
        "AdviceKind", "_wrap_step", "_static_impl", "_compile_static_runner",
        "_static_kind", "DispatchContextOwner", "enter_ticket", "leave_ticket",
        "ParallelApp.admitted", "ParallelApp._plug",
        "_AroundCont", "_CapturedCont", "_FusedJoinPoint", "_around_run",
        "_original_tail", "_AROUND_CONT", "_CAPTURED_CONT",
        "PlanStats.count", "PlanStats.batch_count", "PlanStats.snapshot",
    }
    assert _defined() & gone == set()
    assigned = {
        target.attr
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
    }
    assert assigned & {
        "_tickets", "trace_log", "contexts", "dispatches", "forwards",
        "_forwards_lock", "guarded", "data_calls", "control_calls",
        "compiles", "_submissions", "_proceed_map", "_tail",
        "_AROUND_CONT", "_CAPTURED_CONT",
    } == set()
    assert "self.modules" not in (SRC / "api" / "app.py").read_text()
    assert {"result", "exception"} & set(JoinPoint.__slots__) == set()


def test_one_placement_decision():
    """Placement is one decision, made by the distribution aspect's
    policy over the host group its middleware offers.  The process
    middleware keeps no batch, no fake cluster and no policy of its own;
    nothing outside the distribution aspects (and the hand-coded
    baseline, which has none) calls a policy; and the tenant plane's
    unread placement feedback and the advice-trace monkey-patch are
    gone."""
    trees = _trees()
    proc = next(
        cls
        for cls in ast.walk(trees["middleware/proc.py"])
        if isinstance(cls, ast.ClassDef) and cls.name == "ProcMiddleware"
    )
    assert "batch" not in {
        node.name for node in proc.body if isinstance(node, ast.FunctionDef)
    }
    imported = _imports(SRC / "middleware" / "proc.py")
    assert "types.SimpleNamespace" not in imported
    assert "repro.middleware.placement" not in imported
    choosing = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choose"
    }
    assert choosing and all(
        name.startswith("parallel/distribution/")
        or name == "apps/primes/handcoded.py"
        for name in choosing
    ), choosing
    gone = {
        "PlacementFeedback", "placement_hint", "observe_admission",
        "trace_advice", "AdviceTrace", "_baseline_run_chain",
    }
    assert _defined() & gone == set()


#: what the module factories used to patch onto the modules they built
MODULE_ATTRS = {"coordinator", "aspect", "async_aspect", "provides_concurrency"}


def test_one_registry_protocol():
    """A registry name reaches its aspect one way: the strategy and
    middleware registries hold aspect classes, as the backend registry
    holds backend classes.  No module factory or bundle wraps them, no
    attribute is patched onto a builder function or a module, and the
    skeletons never learn the spec's field names."""
    trees = _trees()
    factories = {
        f"{name}::{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and re.search(r"_(module|bundle)$", node.name)
        and node.name != "concurrency_module"  # it holds two aspects
    }
    assert factories == set()

    def module_named(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and re.search(r"module$|^m$|^conc$", node.id)

    patched = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if node.attr in ("coordinator_class", "requires_splitter") and isinstance(
                    node.ctx, ast.Store
                ):
                    patched.add(f"{name}:{node.lineno}")
                if node.attr in MODULE_ATTRS and module_named(node.value):
                    patched.add(f"{name}:{node.lineno}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr", "hasattr")
                and len(node.args) >= 2
                and module_named(node.args[0])
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in MODULE_ATTRS
            ):
                patched.add(f"{name}:{node.lineno}")
    assert patched == set()

    spec_fields = {
        "strategy_options", "middleware_options", "creation_pointcut", "work_pointcut",
    }
    learned = {
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        if name.startswith("parallel/")
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in spec_fields)
        or (isinstance(node, ast.Constant) and node.value in spec_fields)
    }
    assert learned == set()



def test_one_retry_place():
    """A split's retry lives in one gather: only
    ``PieceOutcomes`` (``partition/base.py``) and the pipeline's
    collector re-feed read the ticket's retry policy or ask it what is
    retryable.  The per-piece envelope and the normaliser it fed are
    gone."""
    reading = {
        name
        for name, tree in _trees().items()
        if name.startswith("parallel/")
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "retry_policy")
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "retryable"
        )
    }
    assert reading == {"parallel/partition/base.py", "parallel/partition/pipeline.py"}
    assert _defined() & {"dispatch_with_retry", "piece_results"} == set()


@pytest.mark.parametrize("package", TOP_LEVEL)
def test_every_exported_name_resolves(package):
    """A stale string in ``__all__`` breaks nothing but ``import *``:
    every public module exports only names it has."""
    top = importlib.import_module(package)
    modules = [top]
    if package != "repro" and hasattr(top, "__path__"):
        modules += [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(top.__path__, f"{package}.")
            if not info.name.rsplit(".", 1)[-1].startswith("_")
        ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
