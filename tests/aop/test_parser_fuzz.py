"""Parser robustness: generated expressions round-trip, garbage input
fails with PointcutSyntaxError (never an internal error)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aop import parse_pointcut
from repro.aop.joinpoint import JoinPointKind
from repro.errors import PointcutSyntaxError

COMMON = settings(max_examples=60, deadline=None)

# -- generated valid expressions ------------------------------------------------

ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
type_pat = st.one_of(ident, ident.map(lambda s: s + "*"), st.just("*"))
params = st.sampled_from(["(..)", "( .. )", ""])


@st.composite
def signatures(draw):
    return f"{draw(type_pat)}.{draw(ident)}{draw(params)}"


@st.composite
def expressions(draw, depth=2):
    if depth == 0:
        if draw(st.booleans()):
            return f"call({draw(signatures())})"
        return f"initialization({draw(type_pat)}.new(..))"
    op = draw(st.integers(0, 2))
    left = draw(expressions(depth=depth - 1))
    if op == 0:
        return f"!{left}"
    right = draw(expressions(depth=depth - 1))
    if op == 1:
        return f"({left} && {right})"
    return f"({left} || {right})"


class Probe:
    def method(self, x):
        return x


class TestGeneratedExpressions:
    @COMMON
    @given(expressions())
    def test_parse_and_evaluate_never_crashes(self, text):
        node = parse_pointcut(text)
        # shadow matching must be total for any class/method/kind
        for kind in JoinPointKind:
            result = node.matches_shadow(Probe, "method", kind)
            assert result is True or result is False

    @COMMON
    @given(expressions())
    def test_str_round_trips_to_equivalent_shadows(self, text):
        first = parse_pointcut(text)
        second = parse_pointcut(str(first))
        for kind in JoinPointKind:
            assert first.matches_shadow(Probe, "method", kind) == (
                second.matches_shadow(Probe, "method", kind)
            )


class TestGarbageInput:
    @COMMON
    @given(st.text(max_size=40))
    def test_garbage_raises_syntax_error_only(self, text):
        try:
            parse_pointcut(text)
        except PointcutSyntaxError:
            pass  # expected for almost everything

    @COMMON
    @given(st.text(alphabet="()!&|.*,cawlithn ", max_size=30))
    def test_operator_soup_raises_cleanly(self, text):
        try:
            parse_pointcut(text)
        except PointcutSyntaxError:
            pass
