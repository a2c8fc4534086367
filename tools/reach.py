"""Reachability census: the ``src/repro`` definitions no product path runs.

    python tools/reach.py CEILING

Runs the product paths with a trace hook in every interpreter they start,
then lists each top-level function and method under ``src/repro`` that
none of them called, by package and by definition, and exits non-zero
when those definitions span more than ``CEILING`` lines (``make reach``
passes ``UNREACHED_CEILING``).

The product paths are ``make examples``, ``make bench-e2e-smoke`` and
``make bench-smoke``, which must pass, and the paper benches (Fig. 16,
Fig. 17, Table 1, the middleware comparison and the strategy ablation)
at small knobs.  Small knobs are enough to reach the code but fail the
Fig. 16/17 shape assertions, so those runs count for reachability and
their exit status is ignored (``make reproduce`` gates the shapes).

The hook is a ``sitecustomize`` module on ``PYTHONPATH``, so it loads in
child interpreters too (``benchmarks/e2e/run.py`` starts some).  It is a
trace function (``sys.settrace``, and ``threading.settrace`` for later
threads): a layer apart from the profile hooks the count tests install
with ``sys.setprofile``/``threading.setprofile``, so those keep their
events and ``sys.setprofile(None)`` cannot switch the census off.  The
first call of each code object writes one line at once, so a forked
worker that leaves through ``os._exit`` loses nothing.

A definition is reached when a code object with its file and first line
ran; a decorated definition's code object starts at its first decorator.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: the paper benches, run at small knobs for reachability only
PAPER_BENCHES = [
    "benchmarks/bench_fig16_overhead.py",
    "benchmarks/bench_fig17_combinations.py",
    "benchmarks/bench_table1_combinations.py",
    "benchmarks/bench_middleware.py",
    "benchmarks/bench_ablation_strategies.py",
]
SMALL_KNOBS = {"REPRO_BENCH_MAXIMUM": "200000", "REPRO_BENCH_PACKS": "8"}

_SITECUSTOMIZE = """\
import importlib.util

_spec = importlib.util.spec_from_file_location("reach_census", {tool!r})
_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_census)
_census.install({out!r}, {root!r})
"""


# -- the hook (runs inside every traced interpreter) ------------------------

def install(out: str, root: str) -> None:
    """Record, in ``out``, the first call of every code object under
    ``root`` made by this interpreter, its threads and its forks."""
    prefix = os.path.abspath(root) + os.sep
    # open for the life of the interpreter, and shared by its forks:
    # O_APPEND keeps their lines whole
    fd = os.open(
        os.path.join(out, f"{os.getpid()}.calls"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
    )
    # co_filename -> (absolute path, first lines written), None outside root
    seen: dict[str, tuple[str, set[int]] | None] = {}

    def trace(frame, event, arg):
        code = frame.f_code
        try:
            known = seen[code.co_filename]
        except KeyError:
            path = os.path.abspath(code.co_filename)
            known = seen[code.co_filename] = (
                (path, set()) if path.startswith(prefix) else None
            )
        if known is not None and code.co_firstlineno not in known[1]:
            known[1].add(code.co_firstlineno)
            os.write(fd, f"{known[0]}\t{code.co_firstlineno}\n".encode())
        return None

    sys.settrace(trace)
    threading.settrace(trace)


def sitecustomize(out: str, root: str | Path) -> str:
    """Write a ``sitecustomize`` that installs the hook; returns the
    directory to put first on ``PYTHONPATH``."""
    site = os.path.join(out, "site")
    os.makedirs(site, exist_ok=True)
    source = _SITECUSTOMIZE.format(tool=str(Path(__file__).resolve()),
                                   out=out, root=str(root))
    Path(site, "sitecustomize.py").write_text(source)
    return site


# -- the census --------------------------------------------------------------

def definitions(root: str | Path) -> list[tuple[str, int, int, str]]:
    """``(path, first line, line count, qualname)`` of every module-level
    function and every method of a module-level class under ``root``.
    A decorated definition starts at its first decorator."""

    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield first, child.end_lineno - first + 1, prefix + child.name
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif not isinstance(child, ast.expr):
                yield from walk(child, prefix)

    found = []
    for path in sorted(Path(root).resolve().rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend((str(path), first, count, name)
                     for first, count, name in walk(tree, ""))
    return found


def reached(out: str) -> set[tuple[str, int]]:
    """Every ``(path, first line)`` the traced interpreters recorded."""
    calls = set()
    for record in Path(out).glob("*.calls"):
        for line in record.read_text().splitlines():
            path, first = line.split("\t")
            calls.add((path, int(first)))
    return calls


def report(root: str | Path, out: str, ceiling: int, stream=sys.stdout) -> int:
    """Print the census; 1 when the unreached lines exceed ``ceiling``."""
    root = Path(root).resolve()
    calls = reached(out)
    defs = definitions(root)
    missed = [d for d in defs if (d[0], d[1]) not in calls]
    # package -> [definitions, unreached, unreached lines]
    packages: dict[str, list[int]] = {}
    for path, first, count, _name in defs:
        row = packages.setdefault(
            Path(path).relative_to(root).parts[0].removesuffix(".py"), [0, 0, 0]
        )
        row[0] += 1
        if (path, first) not in calls:
            row[1] += 1
            row[2] += count
    print(f"{'package':14s} {'defs':>5s} {'unreached':>9s} {'lines':>6s}", file=stream)
    for package, (total, count, lines) in sorted(packages.items()):
        print(f"{package:14s} {total:5d} {count:9d} {lines:6d}", file=stream)
    print("\nunreached definitions:", file=stream)
    for path, first, count, name in missed:
        where = f"{Path(path).relative_to(root.parent)}:{first}"
        print(f"  {where:44s} {name} ({count})", file=stream)
    lines = sum(d[2] for d in missed)
    print(f"\n{len(defs) - len(missed)} of {len(defs)} definitions reached; "
          f"{len(missed)} unreached, {lines} lines (ceiling {ceiling})", file=stream)
    if lines > ceiling:
        print(f"{lines} unreached lines, over the ceiling of {ceiling}: "
              "give the code a product path or delete it", file=stream)
        return 1
    return 0


def main(argv: list[str]) -> int:
    ceiling = int(argv[1])
    with tempfile.TemporaryDirectory(prefix="reach-") as out:
        site = sitecustomize(out, SRC)
        path = f"{site}{os.pathsep}{ROOT / 'src'}"
        env = dict(os.environ, PYTHONPATH=path)
        make = ["make", "-s", f"PY={sys.executable}", f"PYPATH=PYTHONPATH={path}"]
        done = subprocess.run([*make, "examples", "bench-e2e-smoke", "bench-smoke"],
                              cwd=ROOT, env=env)
        if done.returncode != 0:
            print("reach: a product path failed", file=sys.stderr)
            return done.returncode
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
             "--benchmark-disable", *PAPER_BENCHES],
            cwd=ROOT, env=dict(env, **SMALL_KNOBS),
        )
        return report(SRC, out, ceiling)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
