"""Introspection and debugging tools for woven systems.

The paper argues aspects make parallel code *easier to understand*; that
only holds if developers can see what is woven where.  These helpers
answer the two questions that come up while (un)plugging modules:

* :func:`explain` — which advice (from which aspects, in which order)
  applies at one method, and which parts are dynamic residues;
* :func:`weaving_report` — every woven class with its intercepted
  methods and the deployed aspects, one screenful.
"""

from __future__ import annotations

from repro.aop.joinpoint import JoinPointKind
from repro.aop.weaver import Weaver, default_weaver

__all__ = ["explain", "weaving_report"]


def explain(
    cls: type, method: str, weaver: Weaver | None = None
) -> str:
    """Describe the advice chain at ``cls.method`` (and construction)."""
    weaver = weaver if weaver is not None else default_weaver
    lines = [f"{cls.__name__}.{method}:"]
    for kind, label in (
        (JoinPointKind.CALL, "call"),
        (JoinPointKind.INITIALIZATION, "initialization"),
    ):
        name = "__init__" if kind is JoinPointKind.INITIALIZATION else method
        entries, needs_caller = weaver.chain(cls, name, kind)
        if not entries:
            continue
        lines.append(f"  [{label}] chain (outermost first):")
        for index, entry in enumerate(entries):
            residue = " (dynamic residue)" if entry.needs_eval else ""
            lines.append(
                f"    {index + 1}. {entry.kind} {type(entry.aspect).__name__}."
                f"{entry.func.__name__}  <- {entry.pointcut}{residue}"
            )
        if needs_caller:
            lines.append("    (caller info resolved per call: within() in use)")
    if len(lines) == 1:
        lines.append("  no advice applies (inert)")
    return "\n".join(lines)


def weaving_report(weaver: Weaver | None = None) -> str:
    """One-screen summary of the weaver's state."""
    weaver = weaver if weaver is not None else default_weaver
    lines = ["=== weaving report ==="]
    woven = weaver.woven_classes
    lines.append(f"woven classes ({len(woven)}):")
    for cls in woven:
        methods = [
            name
            for name, attr in vars(cls).items()
            if getattr(attr, "__aop_dispatcher__", False)
            and name not in ("__new__", "__init__")
        ]
        lines.append(
            f"  {cls.__module__}.{cls.__name__}: "
            f"{', '.join(sorted(methods)) or '(construction only)'}"
        )
    deployed = weaver.deployed
    lines.append(f"deployed aspects ({len(deployed)}):")
    for aspect in deployed:
        advice_count = len(type(aspect)._advice_decls)
        lines.append(
            f"  {type(aspect).__name__} (precedence {aspect.precedence}, "
            f"{advice_count} advice)"
        )
    return "\n".join(lines)

