"""Import path for the harness self-tests: ``e2ebench`` lives beside this
directory, ``repro`` under ``src/`` (already on the path under tier-1)."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1]
for _path in (_BENCH.parents[1] / "src", _BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
