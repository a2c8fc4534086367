"""The reachability census (``tools/reach.py``) on a throwaway package:
which calls it records, that the program's own profile hooks neither
lose events to it nor switch it off, how a decorated definition is
keyed, and the ceiling's exit status."""

from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def on_main():
    return 1


def in_thread():
    return 2


def in_fork():
    return 3


def after_profile_off():
    return 4


def never():
    return 5


class Box:
    @property
    def size(self):
        return 6

    @deco
    @deco
    def twice(self):
        return 7

    def unused(self):
        return 8
'''

PROGRAM = '''\
import json
import os
import sys
import threading

from pkg import mod

seen = []


def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename == mod.__file__:
        seen.append(frame.f_code.co_name)


sys.setprofile(hook)
threading.setprofile(hook)
mod.on_main()
thread = threading.Thread(target=mod.in_thread)
thread.start()
thread.join()
pid = os.fork()
if pid == 0:
    mod.in_fork()
    os._exit(0)
os.waitpid(pid, 0)
sys.setprofile(None)
threading.setprofile(None)
mod.after_profile_off()
mod.Box().size
mod.Box().twice()
print(json.dumps(seen))
'''


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """Run the program once under the census: ``(package, record
    directory, the names the program's own hook saw)``."""
    root = tmp_path_factory.mktemp("census")
    package = root / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (root / "program.py").write_text(PROGRAM)
    out = root / "calls"
    out.mkdir()
    site = reach.sitecustomize(str(out), package)
    done = subprocess.run(
        [sys.executable, str(root / "program.py")],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=f"{site}{os.pathsep}{root}"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return package, str(out), json.loads(done.stdout.splitlines()[-1])


def reached_names(package, out):
    calls = reach.reached(out)
    return {
        name
        for path, first, _count, name in reach.definitions(package)
        if (path, first) in calls
    }


def test_records_calls_on_the_main_thread_a_thread_and_a_fork(census):
    package, out, _seen = census
    reached = reached_names(package, out)
    assert {"on_main", "in_thread", "in_fork", "deco"} <= reached
    assert {"never", "Box.unused"}.isdisjoint(reached)


def test_the_programs_own_profile_hooks_keep_their_events(census):
    _package, _out, seen = census
    assert seen == ["on_main", "in_thread"]


def test_switching_the_profiler_off_leaves_the_census_on(census):
    package, out, _seen = census
    assert "after_profile_off" in reached_names(package, out)


def test_a_decorated_definition_is_keyed_by_its_first_decorator(census):
    package, out, _seen = census
    lines = MODULE.splitlines()
    first = {name: line for _path, line, _count, name in reach.definitions(package)}
    assert lines[first["Box.size"] - 1].strip() == "@property"
    assert lines[first["Box.twice"] - 1].strip() == "@deco"
    assert lines[first["Box.twice"]].strip() == "@deco"
    assert {"Box.size", "Box.twice"} <= reached_names(package, out)


def test_the_report_fails_only_above_the_ceiling(census):
    package, out, _seen = census
    # unreached: never (2 lines) and Box.unused (2 lines)
    stream = io.StringIO()
    assert reach.report(package, out, 4, stream) == 0
    assert "2 unreached, 4 lines" in stream.getvalue()
    assert "pkg/mod.py" in stream.getvalue()
    assert reach.report(package, out, 3, io.StringIO()) == 1


def test_definitions_cover_functions_and_methods_only(tmp_path):
    source = textwrap.dedent(
        """\
        def top():
            def inner():
                pass

        class A:
            class B:
                def method(self):
                    pass

        if True:
            def conditional():
                pass
        """
    )
    (tmp_path / "m.py").write_text(source)
    assert [name for *_rest, name in reach.definitions(tmp_path)] == [
        "top", "A.B.method", "conditional",
    ]
