"""Placement feedback: spread hot tenants using cluster metrics.

:class:`PlacementFeedback` consumes the dict shape produced by
:func:`repro.cluster.metrics.snapshot` — per-node utilisation and core
counts — and answers "where should this tenant's next servant go?".
Between observations each hint adds *pending* pressure (one outstanding
servant's worth, normalised by the node's cores) to the chosen node, so
a hot tenant asking many times in a burst is spread across the
lightly-loaded machines instead of stacking onto the single currently
least-utilised one.  A fresh observation resets the pending pressure to
what the cluster actually measured.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["PlacementFeedback"]


class PlacementFeedback:
    """Least-loaded-node suggestions with burst spreading."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._utilisation: dict[Any, float] = {}
        self._cores: dict[Any, int] = {}
        self._pending: dict[Any, float] = {}
        self._assignments: dict[str, list[Any]] = {}

    def observe(self, snapshot: dict) -> None:
        """Ingest one cluster metrics snapshot (authoritative: clears
        the pending pressure accumulated since the last one)."""
        with self._lock:
            for node in snapshot.get("nodes", ()):
                node_id = node["node"]
                self._utilisation[node_id] = float(
                    node.get("utilisation", 0.0)
                )
                self._cores[node_id] = max(1, int(node.get("cores", 1)))
                self._pending[node_id] = 0.0

    def suggest(self, tenant: str = "") -> Any:
        """The node with the least observed + pending load, or ``None``
        before any observation.  Records the assignment."""
        with self._lock:
            if not self._utilisation:
                return None

            def load(node_id: Any) -> float:
                return (
                    self._utilisation[node_id]
                    + self._pending[node_id] / self._cores[node_id]
                )

            node_id = min(sorted(self._utilisation), key=load)
            self._pending[node_id] += 1.0
            self._assignments.setdefault(tenant, []).append(node_id)
            return node_id

    def assignments(self, tenant: str = "") -> tuple:
        """The nodes suggested to ``tenant`` so far, in order."""
        with self._lock:
            return tuple(self._assignments.get(tenant, ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return f"<PlacementFeedback nodes={len(self._utilisation)}>"
