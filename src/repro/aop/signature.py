"""Signature patterns for pointcut matching.

Implements the pattern sub-language that appears inside ``call(..)`` and
``initialization(..)``:

* **Type patterns** — ``PrimeFilter``, ``*Filter``, ``pkg.mod.Class``,
  ``Pipe+`` (the class or any subtype, including *virtual* subtypes
  registered via ``declare_parents``), ``*`` (any type).
* **Name patterns** — method names with ``*`` wildcards (``move*``).
* **Parameters** — only ``(..)``, any number of arguments; a signature
  without a parameter list means the same.

AspectJ resolves subtype tests against the Java type system; we keep our
own *virtual-subtype registry* so that ``declare parents`` (inter-type
declaration) can make a core class implement a marker interface without
mutating ``__bases__`` — exactly the mechanism the paper's reusable
``PipelineProtocol`` aspect relies on (Figure 9).
"""

from __future__ import annotations

import fnmatch
import re

from repro.errors import PointcutSyntaxError

__all__ = [
    "TypePattern",
    "NamePattern",
    "SignaturePattern",
    "register_virtual_base",
    "unregister_virtual_base",
    "is_subtype",
    "virtual_bases_of",
]

# ---------------------------------------------------------------------------
# Virtual subtype registry (supports declare_parents on non-ABC interfaces)
# ---------------------------------------------------------------------------

_VIRTUAL_BASES: dict[type, set[type]] = {}


def register_virtual_base(cls: type, base: type) -> None:
    """Record that ``cls`` should be treated as a subtype of ``base``.

    Also registers with :mod:`abc` when ``base`` supports it so that
    ``isinstance`` checks in user code agree with pointcut matching.
    """
    _VIRTUAL_BASES.setdefault(cls, set()).add(base)
    register = getattr(base, "register", None)
    if callable(register):
        try:
            register(cls)
        except (TypeError, RuntimeError):  # plain classes have no ABC machinery
            pass


def unregister_virtual_base(cls: type, base: type) -> None:
    """Remove a virtual subtype relation (ABC registration is sticky and
    intentionally left in place; the pointcut matcher uses this registry,
    not ``issubclass``, as its source of truth for unweaving)."""
    bases = _VIRTUAL_BASES.get(cls)
    if bases is not None:
        bases.discard(base)
        if not bases:
            del _VIRTUAL_BASES[cls]


def virtual_bases_of(cls: type) -> frozenset[type]:
    """All bases registered for ``cls`` (not transitive, not inherited)."""
    return frozenset(_VIRTUAL_BASES.get(cls, frozenset()))


def is_subtype(cls: type, base: type) -> bool:
    """``issubclass`` extended with the virtual-subtype registry.

    The registry is consulted transitively through real MRO entries: if
    any class on ``cls``'s MRO was declared a virtual subtype of ``base``
    the relation holds.
    """
    try:
        if issubclass(cls, base):
            return True
    except TypeError:
        return False
    for entry in cls.__mro__:
        declared = _VIRTUAL_BASES.get(entry)
        if declared:
            if base in declared:
                return True
            # one level of transitivity through declared virtual bases
            for vb in declared:
                if vb is not base and is_subtype(vb, base):
                    return True
    return False


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def _glob_to_regex(pattern: str) -> re.Pattern[str]:
    return re.compile(fnmatch.translate(pattern))


class TypePattern:
    """Matches classes by (possibly qualified, possibly wildcarded) name.

    ``Pipe+`` matches ``Pipe`` and all (virtual) subtypes.  An unqualified
    pattern matches against the class ``__name__``; a dotted pattern
    matches against ``module.qualname``.
    """

    __slots__ = ("text", "subtypes", "_regex", "_qualified")

    def __init__(self, text: str):
        text = text.strip()
        if not text:
            raise PointcutSyntaxError("empty type pattern")
        self.subtypes = text.endswith("+")
        if self.subtypes:
            text = text[:-1]
        if not text:
            raise PointcutSyntaxError("'+' requires a type name")
        self.text = text
        self._qualified = "." in text
        self._regex = _glob_to_regex(text)

    def matches_class(self, klass: type) -> bool:
        """Does this pattern match the class ``klass``?"""
        if self.subtypes:
            # Name-based subtype test: match the class itself or anything
            # on its (real + virtual) ancestry.
            if self._name_matches(klass):
                return True
            for ancestor in klass.__mro__[1:]:
                if self._name_matches(ancestor):
                    return True
            seen: set[type] = set()
            stack: list[type] = [klass]
            while stack:
                current = stack.pop()
                for entry in current.__mro__:
                    for vb in virtual_bases_of(entry):
                        if vb not in seen:
                            seen.add(vb)
                            if self._name_matches(vb):
                                return True
                            stack.append(vb)
            return False
        return self._name_matches(klass)

    def _name_matches(self, klass: type) -> bool:
        if self._qualified:
            full = f"{klass.__module__}.{klass.__qualname__}"
            return bool(self._regex.match(full))
        return bool(self._regex.match(klass.__name__))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TypePattern({self.text}{'+' if self.subtypes else ''})"

    def __str__(self) -> str:
        return self.text + ("+" if self.subtypes else "")


class NamePattern:
    """Method-name pattern with ``*`` wildcards."""

    __slots__ = ("text", "_regex")

    def __init__(self, text: str):
        text = text.strip()
        if not text:
            raise PointcutSyntaxError("empty name pattern")
        self.text = text
        self._regex = _glob_to_regex(text)

    def matches(self, name: str) -> bool:
        return bool(self._regex.match(name))

    def __repr__(self) -> str:  # pragma: no cover
        return f"NamePattern({self.text})"

    def __str__(self) -> str:
        return self.text


class SignaturePattern:
    """``TypePattern.NamePattern(..)`` — a full signature.

    The special method name ``new`` designates construction, mirroring
    AspectJ's ``Class.new(..)`` (the paper writes
    ``around (PrimeFilter.new(..))``).  The parameter list is always
    ``(..)`` (or left out): a typed list would need testing each call's
    arguments, and every pointcut here is decided once per shadow.
    """

    __slots__ = ("type_pattern", "name_pattern")

    def __init__(self, type_pattern: TypePattern, name_pattern: NamePattern):
        self.type_pattern = type_pattern
        self.name_pattern = name_pattern

    @property
    def is_constructor(self) -> bool:
        return self.name_pattern.text in ("new", "__init__")

    @classmethod
    def parse(cls, text: str) -> "SignaturePattern":
        """Parse ``Type.name(..)`` (params optional); any other
        parameter list is refused."""
        text = text.strip()
        if "(" in text:
            if not text.endswith(")"):
                raise PointcutSyntaxError(
                    f"unbalanced parentheses in signature {text!r}", text
                )
            head, _, inner = text.partition("(")
            if inner[:-1].strip() != "..":
                raise PointcutSyntaxError(
                    f"unsupported parameter list in signature {text!r}: "
                    "only (..) is supported",
                    text,
                )
            text = head.strip()
        if "." not in text:
            raise PointcutSyntaxError(
                f"signature {text!r} must be of the form Type.method(..)", text
            )
        type_text, _, name_text = text.rpartition(".")
        return cls(TypePattern(type_text), NamePattern(name_text))

    def matches_shadow(self, cls: type, name: str) -> bool:
        """Does the signature select method ``name`` of ``cls``?"""
        return self.type_pattern.matches_class(cls) and self.name_pattern.matches(
            name
        )

    def __str__(self) -> str:
        return f"{self.type_pattern}.{self.name_pattern}(..)"

    def __repr__(self) -> str:  # pragma: no cover
        return f"SignaturePattern({self})"
