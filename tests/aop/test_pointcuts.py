"""Pointcut language: parsing, per-shadow matching, combinators, and
the refusal of everything outside the supported subset."""

from __future__ import annotations

import pytest

from repro.aop import (
    Aspect,
    around,
    deploy,
    parse_pointcut,
    weave,
)
from repro.aop.joinpoint import JoinPointKind
from repro.aop.pointcut import And, Call, Initialization, Not, Or
from repro.aop.signature import (
    NamePattern,
    SignaturePattern,
    TypePattern,
    is_subtype,
    register_virtual_base,
    unregister_virtual_base,
)
from repro.errors import PointcutSyntaxError


class Alpha:
    def run(self, x):
        return ("alpha", x)

    def walk(self):
        return "walking"


class Beta(Alpha):
    def run(self, x):
        return ("beta", x)


class TestTypePattern:
    def test_exact_name(self):
        assert TypePattern("Alpha").matches_class(Alpha)
        assert not TypePattern("Alpha").matches_class(Beta)

    def test_wildcard(self):
        assert TypePattern("Al*").matches_class(Alpha)
        assert TypePattern("*a").matches_class(Beta)
        assert not TypePattern("Gamma*").matches_class(Alpha)

    def test_universal(self):
        pat = TypePattern("*")
        assert pat.matches_class(Alpha)
        assert pat.matches_class(int)

    def test_subtypes_plus(self):
        pat = TypePattern("Alpha+")
        assert pat.matches_class(Alpha)
        assert pat.matches_class(Beta)
        assert not pat.matches_class(int)

    def test_qualified_pattern(self):
        pat = TypePattern(f"{__name__}.Alpha")
        assert pat.matches_class(Alpha)
        pat2 = TypePattern("other.module.Alpha")
        assert not pat2.matches_class(Alpha)

    def test_virtual_subtype_via_registry(self):
        class Marker:
            pass

        try:
            register_virtual_base(Alpha, Marker)
            assert is_subtype(Alpha, Marker)
            assert is_subtype(Beta, Marker)  # inherited through MRO
            assert TypePattern("Marker+").matches_class(Alpha)
            assert TypePattern("Marker+").matches_class(Beta)
        finally:
            unregister_virtual_base(Alpha, Marker)
        assert not is_subtype(Alpha, Marker)

    def test_empty_pattern_rejected(self):
        with pytest.raises(PointcutSyntaxError):
            TypePattern("")
        with pytest.raises(PointcutSyntaxError):
            TypePattern("+")


class TestSignatureParsing:
    def test_basic(self):
        sig = SignaturePattern.parse("PrimeFilter.filter(..)")
        assert str(sig.type_pattern) == "PrimeFilter"
        assert str(sig.name_pattern) == "filter"
        assert str(sig) == "PrimeFilter.filter(..)"

    def test_no_params_section_means_any(self):
        assert str(SignaturePattern.parse("PrimeFilter.filter")) == (
            "PrimeFilter.filter(..)"
        )

    def test_constructor_detection(self):
        assert SignaturePattern.parse("PrimeFilter.new(..)").is_constructor
        assert not SignaturePattern.parse("PrimeFilter.filter(..)").is_constructor

    def test_missing_dot_rejected(self):
        with pytest.raises(PointcutSyntaxError):
            SignaturePattern.parse("filter(..)")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(PointcutSyntaxError):
            SignaturePattern.parse("A.f(..")


class TestParser:
    def test_parse_call(self):
        node = parse_pointcut("call(Alpha.run(..))")
        assert isinstance(node, Call)
        assert node.matches_shadow(Alpha, "run", JoinPointKind.CALL) is True

    def test_call_with_new_normalises_to_initialization(self):
        node = parse_pointcut("call(Alpha.new(..))")
        assert isinstance(node, Initialization)

    def test_parse_initialization(self):
        node = parse_pointcut("initialization(Alpha.new(..))")
        assert isinstance(node, Initialization)
        assert (
            node.matches_shadow(Alpha, "__init__", JoinPointKind.INITIALIZATION)
            is True
        )
        assert node.matches_shadow(Alpha, "run", JoinPointKind.CALL) is False

    def test_boolean_operators_and_parens(self):
        node = parse_pointcut(
            "call(Alpha.run(..)) || (call(Alpha.*(..)) && !call(Alpha.walk(..)))"
        )
        assert isinstance(node, Or)
        assert node.matches_shadow(Alpha, "run", JoinPointKind.CALL) is True
        assert node.matches_shadow(Alpha, "walk", JoinPointKind.CALL) is False

    def test_not_operator(self):
        node = parse_pointcut("!call(Alpha.run(..))")
        assert isinstance(node, Not)
        assert node.matches_shadow(Alpha, "run", JoinPointKind.CALL) is False
        assert node.matches_shadow(Alpha, "walk", JoinPointKind.CALL) is True

    def test_whitespace_tolerated(self):
        node = parse_pointcut("  call( Alpha.run(..) )   &&   !call(Alpha.walk( .. )) ")
        assert isinstance(node, And)

    def test_errors(self):
        for bad in [
            "",
            "call()",
            "bogus(A.f(..))",
            "call(A.f(..)",
            "call(A.f(..)) &&",
            "call(A.f(..)) extra",
            "adviceexecution(stuff)",
            "within()",
        ]:
            with pytest.raises(PointcutSyntaxError):
                parse_pointcut(bad)

    def test_parse_non_string_rejected(self):
        with pytest.raises(TypeError):
            parse_pointcut(42)


#: what the parser refuses -> the name its error must carry: every
#: designator but call/initialization, and every parameter list but (..)
REFUSED = {
    "call(Alpha.run(..)) && within(tests.*)": "'within'",
    "call(Alpha.run(..)) && target(Beta)": "'target'",
    "call(Alpha.run(..)) && args(int)": "'args'",
    "call(Alpha.run(..)) && cflow(call(Alpha.walk(..)))": "'cflow'",
    "call(Alpha.run(..)) && cflowbelow(call(Alpha.run(..)))": "'cflowbelow'",
    "call(Alpha.run(..)) && !adviceexecution()": "'adviceexecution'",
    "execution(Alpha.run(..))": "'execution'",
    "true()": "'true'",
    "call(Alpha.run(..)) || false()": "'false'",
    "call(A.f(int))": "'A.f(int)'",
    "call(A.f())": "'A.f()'",
    "call(A.f(*))": "'A.f(*)'",
}


@pytest.mark.parametrize("text", REFUSED)
def test_the_parser_refuses_what_is_not_decided_per_shadow(text):
    with pytest.raises(PointcutSyntaxError) as refused:
        parse_pointcut(text)
    assert REFUSED[text] in str(refused.value)


class TestAdvisedMatching:
    def test_wildcard_method_pattern(self):
        hits = []

        class All(Aspect):
            @around("call(Alpha.*(..))")
            def hit(self, jp):
                hits.append(jp.name)
                return jp.proceed()

        weave(Alpha, methods=["run", "walk"])
        deploy(All())
        a = Alpha.__new__(Alpha)
        a.run(1)
        a.walk()
        assert hits == ["run", "walk"]

    def test_from_advice_guard(self):
        """``jp.from_advice`` is this weaver's ``!adviceexecution()``: a
        call the advice makes is re-intercepted, and the guard lets it
        through untouched."""

        class Svc:
            def ping(self):
                return "pong"

        core_hits = []

        class Fwd(Aspect):
            @around("call(Svc.ping(..))")
            def fwd(self, jp):
                if jp.from_advice:
                    return jp.proceed()
                core_hits.append("advised")
                jp.target.ping()  # from advice: must NOT count
                return jp.proceed()

        weave(Svc)
        deploy(Fwd())
        assert Svc().ping() == "pong"
        assert core_hits == ["advised"]

class TestCombinatorAlgebra:
    def test_shadow_two_valued_logic(self):
        run = parse_pointcut("call(Alpha.run(..))")
        never = parse_pointcut("call(Gamma.run(..))")
        shadow = (Alpha, "run", JoinPointKind.CALL)
        assert And(run, never).matches_shadow(*shadow) is False
        assert Or(run, never).matches_shadow(*shadow) is True
        assert Not(never).matches_shadow(*shadow) is True
        assert Not(run).matches_shadow(*shadow) is False
