"""Introspection tools: explain, weaving_report."""

from __future__ import annotations

from repro.aop import Aspect, around, before, deploy, weave
from repro.aop.tools import explain, weaving_report


def make_machine():
    class Machine:
        def __init__(self):
            self.state = 0

        def start(self):
            self.state = 1
            return "started"

        def stop(self):
            self.state = 0

    return Machine


class TestExplain:
    def test_inert_method(self):
        Machine = make_machine()
        weave(Machine)
        text = explain(Machine, "start")
        assert "no advice applies" in text

    def test_chain_listing_order_and_residues(self):
        Machine = make_machine()

        class Outer(Aspect):
            precedence = 10

            @around("call(Machine.start(..))")
            def wrap(self, jp):
                return jp.proceed()

        class Inner(Aspect):
            precedence = 1

            @before("call(Machine.start(..)) && !adviceexecution()")
            def note(self, jp):
                pass

        weave(Machine)
        deploy(Outer())
        deploy(Inner())
        text = explain(Machine, "start")
        assert text.index("Outer.wrap") < text.index("Inner.note")
        assert "dynamic residue" in text  # the adviceexecution residue
        assert "around" in text and "before" in text

    def test_initialization_chain_shown(self):
        Machine = make_machine()

        class Ctor(Aspect):
            @around("initialization(Machine.new(..))")
            def make(self, jp):
                return jp.proceed()

        weave(Machine)
        deploy(Ctor())
        text = explain(Machine, "start")
        assert "[initialization]" in text


class TestWeavingReport:
    def test_lists_classes_and_aspects(self):
        Machine = make_machine()

        class A(Aspect):
            @before("call(Machine.start(..))")
            def note(self, jp):
                pass

        weave(Machine)
        deploy(A())
        report = weaving_report()
        assert "Machine" in report
        assert "start" in report and "stop" in report
        assert "A (precedence 0, 1 advice)" in report

