"""The core runs on the standard library: numpy is the sample apps'
data type, not the framework's.  A deployment on the thread, asyncio
and process backends loads no numpy module, in the parent nor in a
worker, and the serializer still sizes and copies an ndarray exactly
once its caller has imported numpy — even after the serializer itself.

Each cell runs in a fresh interpreter: this suite imports numpy itself,
so ``sys.modules`` here says nothing about what the product loads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

DEPLOYS = textwrap.dedent(
    """
    import json, os, sys

    from repro.api import ParallelApp, StackSpec
    from repro.parallel import WorkSplitter
    from repro.parallel.partition import CallPiece


    def numpy_modules():
        return sum(1 for name in sys.modules if name.split(".")[0] == "numpy")


    class Census:
        def count(self, values):
            return [[numpy_modules(), os.getpid()] for _ in values]


    def one_value_each(args, kwargs):
        return [CallPiece(i, ([v],)) for i, v in enumerate(args[0])]


    report = {}
    for backend in ("thread", "asyncio", "process"):
        spec = StackSpec(
            target=Census,
            work="count",
            splitter=WorkSplitter(
                duplicates=2,
                split=one_value_each,
                combine=lambda results: [r for part in results for r in part],
            ),
            strategy="farm",
            backend=backend,
        )
        with ParallelApp(spec) as app:
            app.start()
            report[backend] = app.submit([1, 2]).result(timeout=20)
    report["parent"] = [numpy_modules(), os.getpid()]
    print(json.dumps(report))
    """
)

LATE_IMPORT = textwrap.dedent(
    """
    import sys

    from repro.middleware.serialize import Serializer, measure_size

    assert "numpy" not in sys.modules
    import numpy as np

    arr = np.zeros(1000, np.int64)
    clone = Serializer().clone(arr)
    print(measure_size(arr), clone is arr, bool(np.array_equal(clone, arr)))
    """
)


def fresh(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_backend_loads_numpy_in_the_parent_or_a_worker():
    report = json.loads(fresh(DEPLOYS))
    parent = report.pop("parent")
    assert parent[0] == 0
    for backend, pieces in report.items():
        assert [count for count, _ in pieces] == [0, 0], backend
    # the servant really ran in a worker on the process backend, and in
    # the parent on the others
    assert {pid for _, pid in report["process"]} - {parent[1]}
    assert {pid for _, pid in report["thread"] + report["asyncio"]} == {parent[1]}


def test_an_array_imported_after_the_serializer_keeps_its_fast_path():
    size, same, equal = fresh(LATE_IMPORT).split()
    assert int(size) == 64 + 8 * 1000  # header + nbytes, not a pickle
    assert (same, equal) == ("False", "True")
