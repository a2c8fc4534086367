"""Shared fixtures.

The default weaver patches classes globally; ``clean_weaver`` guarantees
every test leaves no aspects deployed and no classes woven behind.
"""

from __future__ import annotations

import pytest

from repro.aop.weaver import default_weaver
from repro.runtime import procbackend


@pytest.fixture(autouse=True)
def clean_weaver():
    """Reset the global weaver before and after every test."""
    default_weaver.reset()
    yield default_weaver
    default_weaver.reset()


@pytest.fixture(autouse=True)
def many_cpus(monkeypatch):
    """The process backend spreads the servants of a construction over
    no more workers than the box has CPUs; the suite's process tests
    were written for a worker per servant, so they see a box with CPUs
    to spare whatever it runs on.  The co-location tests set their own
    count (a test seam: the program has no such option)."""
    monkeypatch.setattr(procbackend, "usable_cpus", lambda: 64)
