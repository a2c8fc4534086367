"""Parallelisation concern categories.

Section 4 of the paper separates parallelisation into four categories.
Each category gets a default aspect *precedence layer* so that woven
advice nests the way the methodology prescribes:

* **partition** (outermost) — splits work before anything else sees it;
* **concurrency** — spawns/synchronises each split call;
* **partition-forward** — the pipeline's stage-to-stage forwarding runs
  *inside* the spawned activity (paper Figure 11) and inside the stage's
  monitor, so it leaves each hop to the activity's body
  (:func:`repro.runtime.dispatch.ride`): one activity per piece journey;
  the last piece of a split rides the splitting activity;
* **distribution** — redirects the (possibly spawned) call to a node;
* **optimisation / instrumentation** (innermost) — platform tuning and
  cost accounting closest to the actual execution.

Layers are spaced so applications can slot custom aspects between them.
"""

from __future__ import annotations

import enum

from repro.aop import Aspect
from repro.middleware.context import STATE as PLACEMENT

__all__ = ["Concern", "LAYER", "ParallelAspect"]


class Concern(enum.Enum):
    """The paper's four categories (plus instrumentation for the cost
    model, which the paper folds into optimisation)."""

    PARTITION = "partition"
    CONCURRENCY = "concurrency"
    DISTRIBUTION = "distribution"
    OPTIMISATION = "optimisation"
    INSTRUMENTATION = "instrumentation"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Default precedence per layer (higher = runs outermost).
LAYER: dict[str, int] = {
    "partition": 400,
    "concurrency": 300,
    "partition-forward": 250,
    "distribution": 200,
    "optimisation": 150,
    "instrumentation": 100,
}


class ParallelAspect(Aspect):
    """Base class for parallelisation-concern aspects.

    Provides the *server-side passthrough* rule: when a servant method
    executes on behalf of the middleware, partition / concurrency /
    distribution advice must not apply again (the server side of
    Figure 13 runs the call locally).  Advice bodies call
    :meth:`passthrough` first::

        @around("stage_call")
        def split(self, jp):
            if self.passthrough(jp):
                return jp.proceed()
            ...
    """

    concern: Concern = Concern.OPTIMISATION
    #: aspects that apply on the servant side set this to True
    applies_server_side: bool = False

    def passthrough(self, jp) -> bool:
        """Should this advice step aside for the current call?"""
        # in_server_dispatch() inline: asked 30 times per pipelined submit
        return not self.applies_server_side and PLACEMENT.dispatch_depth > 0

    def aspects(self) -> tuple[Aspect, ...]:
        """The aspects one module of this concern plugs: this one, and
        any it cannot work without."""
        return (self,)
