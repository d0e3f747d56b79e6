"""Text grammar and JSON codecs: round trips and determinism."""

import doctest
import random
from fractions import Fraction

import pytest

import ybhecke.permutations
import ybhecke.poly
import ybhecke.serialize

from ybhecke.errors import ParseError
from ybhecke.poly import LaurentPoly, RationalFunction, format_poly, format_rf, narrow
from ybhecke.serialize import (
    parse_poly,
    parse_scalar,
    poly_from_json,
    poly_to_json,
    rf_from_json,
    rf_to_json,
)

from test_poly import random_poly, random_rf


def test_parse_basic_forms():
    assert parse_scalar("3/4") == RationalFunction(3) / 4
    assert parse_scalar("x1^2*y1") == RationalFunction(
        LaurentPoly.monomial({"x1": 2, "y1": 1})
    )
    assert parse_scalar("x1^-1") == RationalFunction(LaurentPoly.variable("x1", -1))
    assert parse_scalar("-x1 + x1") == RationalFunction.zero()
    assert parse_scalar("(q1+q2)^2") == parse_scalar("q1^2 + 2*q1*q2 + q2^2")
    assert parse_scalar("2^3") == RationalFunction(8)


def test_parse_rejects_garbage():
    # a leading zero or a non-ASCII digit would alias the index of x1 or u1
    for bad in ("x1 +", "q3", "x0", "(x1", "x1 x2", "^2", "x1*", "x01", "u01",
                "x\u0661", "x01*x1", "x1*x01", "u1 + u\u0661"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


@pytest.mark.parametrize("text", ["\u0662", "u1^\u0662", "\u0662*x1", "x1 + 1\u0662", "x1/\u0663"])
def test_parse_rejects_digits_of_other_scripts(text):
    # \d matches any Unicode decimal digit, so "\u0662" (ARABIC-INDIC DIGIT TWO)
    # used to read as 2
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_parse_poly_requires_polynomial():
    assert parse_poly("x1*x2^-1") == LaurentPoly.monomial({"x1": 1, "x2": -1})
    # reducible quotient is accepted after simplification
    assert parse_poly("(x1^2 - y1^2)/(x1 - y1)") == parse_poly("x1 + y1")
    with pytest.raises(ParseError):
        parse_poly("1/(q1+q2)")


def test_text_roundtrip_random():
    rng = random.Random(21)
    names = ["x1", "x2", "y1", "u2", "q1"]
    for _ in range(25):
        f = random_rf(rng, names)
        assert parse_scalar(format_rf(f)) == f
        p = random_poly(rng, names)
        assert parse_poly(format_poly(p)) == p


def test_text_roundtrip_laurent():
    f = parse_scalar("1 - y1*y2/(x1*x2)")
    assert parse_scalar(format_rf(f)) == f
    p = narrow(f)
    assert isinstance(p, LaurentPoly)
    assert format_poly(p) == "1 - x1^-1*x2^-1*y1*y2"


def test_json_roundtrip_random():
    rng = random.Random(22)
    names = ["x1", "x3", "y2", "u1", "q2"]
    for _ in range(25):
        f = random_rf(rng, names)
        assert rf_from_json(rf_to_json(f)) == f
        p = random_poly(rng, names)
        assert poly_from_json(poly_to_json(p)) == p


def test_json_coefficients_are_fraction_strings():
    p = parse_poly("3/4*x1 - 2")
    data = poly_to_json(p)
    assert {item["coeff"] for item in data} == {"3/4", "-2"}
    assert data[0]["monomial"] == {"x1": 1}


def test_json_decoding_sums_repeated_monomials():
    # the same terms, with the same stored types, as summing one monomial per item
    data = [
        {"coeff": "1/2", "monomial": {"x1": 1, "x2": -1}},
        {"coeff": "3", "monomial": {}},
        {"coeff": "1/2", "monomial": {"x2": -1, "x1": 1}},
        {"coeff": "-3"},
        {"coeff": "2/3", "monomial": {"u1": 2}},
        {"coeff": "0", "monomial": {"q1": 1}},
    ]
    p = poly_from_json(data)
    assert p.terms == {(("x1", 1), ("x2", -1)): 1, (("u1", 2),): Fraction(2, 3)}
    assert [type(c) for c in p.terms.values()] == [int, Fraction]
    assert poly_from_json([]) == LaurentPoly.zero()
    assert poly_from_json([]).terms == {}


def test_rendering_is_deterministic():
    a = parse_poly("x1 + x2 - y1 - y2")
    b = parse_poly("x2 - y2 + x1 - y1")
    assert format_poly(a) == format_poly(b) == "x1 + x2 - y1 - y2"


def test_latex_rendering():
    assert format_poly(parse_poly("x1 - y1"), latex=True) == "x_1-y_1"
    assert format_poly(parse_poly("x1^-1"), latex=True) == "x_1^{-1}"
    f = parse_scalar("1/(q1+q2)")
    assert format_rf(f, latex=True) == "\\frac{1}{q_1+q_2}"


def test_latex_renders_a_fraction_coefficient_as_frac():
    p = parse_poly("x1/2 - 3/4")
    assert format_poly(p, latex=True) == "\\frac{1}{2}x_1-\\frac{3}{4}"


@pytest.mark.parametrize(
    "text,message",
    [("(x1 x2)", r"expected '\)'"), ("x1^x2", "expected integer exponent")],
)
def test_parse_errors_name_what_was_expected(text, message):
    with pytest.raises(ParseError, match=message):
        parse_poly(text)


@pytest.mark.parametrize("text", ["x1 ", "x1\t", " x1 \n"])
def test_trailing_whitespace_is_accepted(text):
    assert parse_poly(text) == parse_poly("x1")


@pytest.mark.parametrize(
    "module",
    [ybhecke.poly, ybhecke.serialize, ybhecke.permutations],
    ids=lambda m: m.__name__,
)
def test_docstring_examples_hold(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
