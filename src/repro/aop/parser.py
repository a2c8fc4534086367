"""Parser for the pointcut expression string language.

Grammar (AspectJ-flavoured)::

    expr     := or_expr
    or_expr  := and_expr ( '||' and_expr )*
    and_expr := unary ( '&&' unary )*
    unary    := '!' unary | '(' expr ')' | primitive
    primitive:= designator '(' signature ')'
    designator := call | initialization

Signature bodies follow :class:`repro.aop.signature.SignaturePattern`;
``call(Type.new(..))`` is normalised to an initialization pointcut, the
form the paper's code sketches use (``around (PrimeFilter.new(..))``).
Every other designator (AspectJ's ``within``, ``target``, ``args``,
``cflow``, ``execution``, ...) and every parameter list but ``(..)`` is
refused with a :class:`~repro.errors.PointcutSyntaxError` naming it: this
weaver decides each pointcut once per shadow (see
:mod:`repro.aop.pointcut`).
"""

from __future__ import annotations

from repro.aop import pointcut as pc
from repro.aop.signature import SignaturePattern
from repro.errors import PointcutSyntaxError

__all__ = ["parse_pointcut"]

_DESIGNATORS = ("call", "initialization")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    # -- low-level ----------------------------------------------------------

    def error(self, message: str) -> PointcutSyntaxError:
        return PointcutSyntaxError(
            f"{message} at position {self.pos} in {self.text!r}",
            self.text,
            self.pos,
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise self.error(f"expected {token!r}")

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise self.error("expected identifier")
        return self.text[start : self.pos]

    def balanced_body(self) -> str:
        """Consume the body of ``designator( ... )`` handling one level of
        nested parentheses (signatures contain their own ``(params)``)."""
        self.expect("(")
        depth = 1
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    body = self.text[start : self.pos]
                    self.pos += 1
                    return body
            self.pos += 1
        raise self.error("unbalanced parentheses")

    # -- grammar -------------------------------------------------------------

    def parse(self) -> pc.Pointcut:
        node = self.or_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return node

    def or_expr(self) -> pc.Pointcut:
        node = self.and_expr()
        while self.accept("||"):
            node = pc.Or(node, self.and_expr())
        return node

    def and_expr(self) -> pc.Pointcut:
        node = self.unary()
        while self.accept("&&"):
            node = pc.And(node, self.unary())
        return node

    def unary(self) -> pc.Pointcut:
        if self.accept("!"):
            return pc.Not(self.unary())
        if self.peek() == "(":
            self.expect("(")
            node = self.or_expr()
            self.expect(")")
            return node
        return self.primitive()

    def primitive(self) -> pc.Pointcut:
        name = self.identifier()
        if name not in _DESIGNATORS:
            raise self.error(
                f"unsupported pointcut designator {name!r} "
                "(only call and initialization)"
            )
        body = self.balanced_body().strip()
        if not body:
            raise self.error(f"{name}() requires a signature")
        signature = SignaturePattern.parse(body)
        if name == "initialization" or signature.is_constructor:
            return pc.Initialization(signature)
        return pc.Call(signature)


def parse_pointcut(text: str) -> pc.Pointcut:
    """Parse a pointcut expression string into a :class:`Pointcut` AST.

    >>> parse_pointcut("call(PrimeFilter.*(..)) && !call(PrimeFilter.stop(..))")
    <And (call(PrimeFilter.*(..)) && !call(PrimeFilter.stop(..)))>
    """
    if not isinstance(text, str):
        raise TypeError(f"pointcut expression must be str, got {type(text)!r}")
    if not text.strip():
        raise PointcutSyntaxError("empty pointcut expression", text, 0)
    return _Parser(text).parse()
