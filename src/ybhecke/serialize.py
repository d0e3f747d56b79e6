"""Parsing and serialization: the text grammar and the JSON codecs.  Text
and LaTeX rendering live in :func:`~ybhecke.poly.format_poly`.

Text grammar (the single parse/render contract used by the CLI and tests):
variables are ``x1``, ``y2``, ``u3``, ``q1``, ``q2``; ``^`` takes an integer
exponent (negative allowed), ``*`` and ``/`` are explicit, parentheses group.
Everything parses into a :class:`~ybhecke.poly.RationalFunction`.

>>> str(parse_scalar("(u3/u2 - 1)/(q1 + q2)"))
'(-1 + u2^-1*u3)/(q1 + q2)'
>>> parse_scalar("1/((1+q1/q2)*(1+q2/q1))") == parse_scalar("q1*q2/(q1+q2)^2")
True
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any

from .errors import ParseError
from .poly import LaurentPoly, RationalFunction, as_rf, display_terms

__all__ = [
    "parse_scalar",
    "parse_poly",
    "poly_to_json",
    "poly_from_json",
    "rf_to_json",
    "rf_from_json",
]

_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<var>[xyu][0-9]+|q[12])|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
        if m.group("int") is not None:
            tokens.append(("int", m.group("int")))
        elif m.group("var") is not None:
            tokens.append(("var", m.group("var")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, found {tok!r}")

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self) -> RationalFunction:
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            total = -self.term()
        else:
            total = self.term()
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                total = total + self.term()
            elif tok == ("op", "-"):
                self.take()
                total = total - self.term()
            else:
                return total

    # term := factor (('*'|'/') factor)*
    def term(self) -> RationalFunction:
        total = self.factor()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
                total = total * self.factor()
            elif tok == ("op", "/"):
                self.take()
                total = total / self.factor()
            else:
                return total

    # factor := atom ['^' signed_int]
    def factor(self) -> RationalFunction:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            kind, text = self.take()
            if kind != "int":
                raise ParseError(f"expected integer exponent, found {text!r}")
            return base ** (sign * int(text))
        return base

    def atom(self) -> RationalFunction:
        kind, text = self.take()
        if kind == "int":
            return RationalFunction.constant(int(text))
        if kind == "var":
            try:
                return RationalFunction.variable(text)
            except ValueError as exc:
                raise ParseError(str(exc))
        if (kind, text) == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {text!r}")


def parse_scalar(text: str) -> RationalFunction:
    """Parse a rational-function literal in the package grammar."""
    parser = _Parser(text)
    value = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input: {parser.tokens[parser.pos:]!r}")
    return value


def parse_poly(text: str) -> LaurentPoly:
    """Parse a literal that must denote a Laurent polynomial (denominator 1)."""
    f = parse_scalar(text)
    if not f.is_polynomial:
        f = f.simplify()
    if not f.is_polynomial:
        raise ParseError(f"{text!r} is not a Laurent polynomial")
    return f.num


# ----------------------------------------------------------------------
# JSON codecs.  A polynomial is a list of {"coeff": "p/q", "monomial":
# {"x1": -1, ...}}; a rational function is {"num": [...], "den": [...]}.
# The terms come in poly's rendering order, from display_terms.


def poly_to_json(p: LaurentPoly) -> list[dict[str, Any]]:
    out = []
    for m, c in display_terms(p):
        out.append({"coeff": str(c), "monomial": dict(m)})
    return out


def poly_from_json(data: list[dict[str, Any]]) -> LaurentPoly:
    """The polynomial of the terms in ``data``; a repeated monomial sums."""
    terms: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for item in data:
        m = tuple(item.get("monomial", {}).items())
        terms[m] = terms.get(m, 0) + Fraction(item["coeff"])
    return LaurentPoly(terms)


def rf_to_json(f: LaurentPoly | RationalFunction) -> dict[str, Any]:
    """The JSON form of ``f``; a LaurentPoly is the rational function f/1."""
    f = as_rf(f)
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def rf_from_json(data: dict[str, Any]) -> RationalFunction:
    return RationalFunction(poly_from_json(data["num"]), poly_from_json(data["den"]))
