"""AspectJ-analogue aspect-oriented programming engine for Python.

This package provides the substrate the reproduced methodology is built
on: joinpoints, a pointcut expression language, advice, aspects with
inter-type declarations, and a runtime weaver supporting deploy/undeploy
— the "(un)pluggability" at the heart of the paper.

Quickstart (paper Figure 3, the logging aspect)::

    from repro.aop import Aspect, around, weave, deploy

    class Point:
        def __init__(self): self.x = self.y = 0
        def move_x(self, d): self.x += d
        def move_y(self, d): self.y += d

    class Logging(Aspect):
        @around("call(Point.move*(..))")
        def log(self, jp):
            print("Move called")
            return jp.proceed()

    weave(Point)
    deploy(Logging())
    Point().move_x(10)          # prints "Move called"
"""

from repro.aop.aspect import (
    AbstractPointcut,
    Aspect,
    ParentDeclaration,
    abstract_pointcut,
    around,
    declare_parents,
    introduce,
    pointcut,
)
from repro.aop.joinpoint import JoinPoint, JoinPointKind
from repro.aop.parser import parse_pointcut
from repro.aop.pointcut import Call, Initialization, Pointcut
from repro.aop.plan import (
    BatchJoinPoint,
    CtorPack,
    MethodTable,
    PlanStats,
    Shadow,
    batched_entry,
    ctor_pack_of,
    piece_view,
)
from repro.aop.signature import (
    NamePattern,
    SignaturePattern,
    TypePattern,
    is_subtype,
)
from repro.aop.weaver import (
    Weaver,
    default_weaver,
    deploy,
    is_woven,
    raw_construct,
    undeploy,
    undeploy_all,
    unweave,
    unweave_all,
    weave,
)

__all__ = [
    # aspect declaration
    "Aspect",
    "around",
    "introduce",
    "pointcut",
    "abstract_pointcut",
    "AbstractPointcut",
    "declare_parents",
    "ParentDeclaration",
    # joinpoints
    "JoinPoint",
    "JoinPointKind",
    # pointcut language
    "Pointcut",
    "parse_pointcut",
    "Call",
    "Initialization",
    # signatures
    "TypePattern",
    "NamePattern",
    "SignaturePattern",
    "is_subtype",
    # weaving
    "Weaver",
    "default_weaver",
    "weave",
    "unweave",
    "unweave_all",
    "deploy",
    "undeploy",
    "undeploy_all",
    "raw_construct",
    "is_woven",
    # compiled dispatch plans
    "Shadow",
    "PlanStats",
    "MethodTable",
    "BatchJoinPoint",
    "CtorPack",
    "ctor_pack_of",
    "batched_entry",
    "piece_view",
]
