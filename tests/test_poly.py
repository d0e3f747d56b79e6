"""Exact arithmetic: canonical forms, field axioms, substitution, gcd."""

import random
import time
from fractions import Fraction
from functools import cmp_to_key
from itertools import permutations, product

import pytest

from ybhecke.errors import (
    DivisionByZero,
    ExactDivisionError,
    ExponentOverflow,
    SubstitutionSingular,
    ZeroPolynomial,
)
from ybhecke.operators import random_probe
import ybhecke.poly
from ybhecke.poly import (
    BETA,
    LaurentPoly,
    RationalFunction,
    _display_key,
    as_rf,
    clear_beta,
    coefficients_in,
    display_terms,
    divided_difference,
    exponent_vectors,
    exact_div,
    lowest_homogeneous_component,
    narrow,
    poly_gcd,
    rename_poly,
    rename_rf,
    substitute,
    substitute_poly,
    sum_of_products,
    sums_of_products,
    var_parts,
    var_sort_key,
)
from ybhecke.permutations import Permutation
from ybhecke.schubert import (
    _specialize_swapped,
    grothendieck_table,
    schubert_table,
    specialize_double,
)
from ybhecke.serialize import parse_poly, parse_scalar


def V(name):
    return LaurentPoly.variable(name)


def random_poly(rng, names, max_deg=3, max_terms=5):
    p = LaurentPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = {}
        for v in names:
            e = rng.randint(0, max_deg)
            if e:
                exps[v] = e
        p = p + LaurentPoly.monomial(exps, rng.randint(-9, 9))
    return p


def integral(*polys):
    return all(c.denominator == 1 for p in polys for c in p.terms.values())


def assert_stored_exactly(p, integral):
    """Stored coefficients are nonzero ints, or Fractions where an input was not
    integral; never a float."""
    for c in p.terms.values():
        assert type(c) is int if integral else type(c) in (int, Fraction), (p, c)
        assert c != 0, p


def random_rf(rng, names, max_deg=2):
    num = random_poly(rng, names, max_deg)
    den = LaurentPoly.zero()
    while den.is_zero:
        den = random_poly(rng, names, max_deg, max_terms=2)
    return RationalFunction(num, den)


# ----------------------------------------------------------------------
# polynomial arithmetic


def test_binomial_product():
    lhs = (V("x1") - V("y1")) * (V("x1") - V("y2"))
    rhs = parse_poly("x1^2 - x1*y1 - x1*y2 + y1*y2")
    assert lhs == rhs


def test_additive_identity():
    rng = random.Random(1)
    for _ in range(10):
        p = random_poly(rng, ["x1", "x2", "y1"])
        assert p + LaurentPoly.zero() == p


def test_staircase_expansion_against_bruteforce():
    # independent oracle: expand prod_{i+j<=4} (x_i - y_j) by nested loops
    # over raw exponent tuples, never touching LaurentPoly arithmetic
    factors = [(i, j) for i in range(1, 4) for j in range(1, 4) if i + j <= 4]
    assert len(factors) == 6
    oracle = {}
    for choice in product((0, 1), repeat=6):
        exps = [0] * 6  # x1 x2 x3 y1 y2 y3
        sign = 1
        for pick, (i, j) in zip(choice, factors):
            if pick == 0:
                exps[i - 1] += 1
            else:
                exps[3 + j - 1] += 1
                sign = -sign
        key = tuple(exps)
        oracle[key] = oracle.get(key, 0) + sign
    oracle = {k: c for k, c in oracle.items() if c}

    poly = LaurentPoly.one()
    for i, j in factors:
        poly = poly * (V(f"x{i}") - V(f"y{j}"))
    assert len(poly) == len(oracle) == 60
    for key, c in oracle.items():
        exps = {}
        for idx, e in enumerate(key):
            if e:
                exps[f"x{idx + 1}" if idx < 3 else f"y{idx - 2}"] = e
        assert poly.coefficient(exps) == c


def test_canonical_form_is_construction_order_independent():
    rng = random.Random(7)
    factors = [V("x1") - V("y1"), V("x1") - V("y2"), V("x2") - V("y1"), V("x1") + 2]
    ref = LaurentPoly.one()
    for f in factors:
        ref = ref * f
    for _ in range(5):
        order = factors[:]
        rng.shuffle(order)
        p = LaurentPoly.one()
        for f in order:
            p = p * f
        assert p.terms == ref.terms


def test_laurent_exponent_legality():
    assert V("x1") ** -1 == LaurentPoly.variable("x1", -1)
    with pytest.raises(ValueError):
        LaurentPoly.variable("y1", -1)
    with pytest.raises(ValueError):
        LaurentPoly.variable("q1", -2)


@pytest.mark.parametrize(
    "name", ["x0", "q3", "z1", "u", "y-1", "u01", "q01", "x\u0661"]
)
def test_bad_variable_name_raises_every_time(name):
    # names are resolved once and remembered; a rejected one must not be
    # remembered
    for _ in range(2):
        with pytest.raises(ValueError):
            LaurentPoly.variable(name)
        with pytest.raises(ValueError):
            var_parts(name)
        with pytest.raises(ValueError):
            var_sort_key(name)


# ----------------------------------------------------------------------
# renaming


def test_rename_merging_targets_with_cancellation():
    p = parse_poly("x1*y1 - x2*y1 + 1/2*x1 + 3*x2 + x1^2*x2^-1")
    got = rename_poly(p, {"x1": "u1", "x2": "u1"})
    assert got == parse_poly("9/2*u1")
    assert_stored_exactly(got, integral=False)
    # integral input: the sums and the output are ints
    got = rename_poly(parse_poly("2*x1 - 2*x2 + x1^2"), {"x1": "u1", "x2": "u1"})
    assert got.terms == {(("u1", 2),): 1}
    assert_stored_exactly(got, integral=True)
    assert rename_poly(parse_poly("x1 - x2"), {"x1": "x2"}).is_zero


def test_rename_negative_exponent_onto_polynomial_variable_raises():
    with pytest.raises(ValueError):
        rename_poly(parse_poly("1 + x1^-1"), {"x1": "y1"})
    with pytest.raises(ValueError):
        rename_poly(parse_poly("x2 + x1^-1"), {"x1": "q1"})
    # the image terms cancel, but the monomial y1^-1 is still illegal
    with pytest.raises(ValueError):
        rename_poly(parse_poly("x1^-1 - x2^-1"), {"x1": "y1", "x2": "y1"})


def test_rename_matches_substitution():
    # variables outside the map, swaps, merges, inverses and fractions
    rng = random.Random(9)
    names = ["x1", "x2", "x3", "u1", "u2", "y1", "q2"]
    maps = [
        {"x1": "x2", "x2": "x1"},
        {"x1": "u2", "x2": "u1", "x3": "u2"},
        {"u1": "u2", "u2": "x3"},
        {"x3": "x1"},
    ]
    for _ in range(20):
        inverse = {"x1": -rng.randint(0, 2), "u2": -rng.randint(0, 2)}
        p = random_poly(rng, names, max_deg=2) * LaurentPoly.monomial(
            inverse, Fraction(1, rng.randint(1, 4))
        )
        for varmap in maps:
            images = {v: RationalFunction.variable(t) for v, t in varmap.items()}
            assert RationalFunction(rename_poly(p, varmap)) == substitute_poly(p, images)


# ----------------------------------------------------------------------
# rational functions


def test_inverse_cancels():
    theta = parse_scalar("q1 + q2")
    assert (1 / theta) * theta == RationalFunction.one()


def test_q_ratio_identity():
    lhs = 1 / (parse_scalar("1 + q1/q2") * parse_scalar("1 + q2/q1"))
    rhs = parse_scalar("q1*q2/(q1+q2)^2")
    assert lhs == rhs


def test_antisymmetric_sum_vanishes_at_coincidence():
    f = parse_scalar("(u3/u2 - 1)/(q1+q2) + (u2/u3 - 1)/(q1+q2)")
    u3 = RationalFunction.variable("u3")
    assert substitute(f, {"u2": u3}).is_zero


def test_monomial_denominators_are_absorbed():
    f = parse_scalar("(x1 - y1)/(x1*x2)")
    assert f.is_polynomial
    assert f == parse_scalar("x2^-1 - x1^-1*x2^-1*y1")


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        parse_scalar("x1") / RationalFunction.zero()
    with pytest.raises(DivisionByZero):
        RationalFunction(LaurentPoly.one(), LaurentPoly.zero())


def test_field_axioms_on_random_functions():
    rng = random.Random(3)
    names = ["u1", "u2", "u3"]
    for _ in range(12):
        f, g, h = (random_rf(rng, names) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        if not f.is_zero:
            assert f * (1 / f) == RationalFunction.one()


# ----------------------------------------------------------------------
# substitution


def test_substitute_direct_image():
    f = parse_scalar("x1 - y1")
    img = substitute(f, {"x1": parse_scalar("u3"), "y1": parse_scalar("u1")})
    assert img == parse_scalar("u3 - u1")


def test_substitute_is_homomorphism():
    rng = random.Random(11)
    names = ["u1", "u2", "u3"]
    images = {
        "u1": parse_scalar("u2 + 1"),
        "u2": parse_scalar("u1*u3"),
    }
    for _ in range(8):
        f = random_rf(rng, names)
        g = random_rf(rng, names)
        assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)


def test_reversal_substitution_is_involutive():
    rng = random.Random(5)
    names = ["u1", "u2", "u3"]
    rev = {"u1": "u3", "u3": "u1"}
    for _ in range(20):
        f = random_rf(rng, names)
        assert rename_rf(rename_rf(f, rev), rev) == f


def test_delta_under_window_reversal():
    n = 3
    theta = parse_scalar("q1+q2")
    delta = RationalFunction.one()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            delta = delta * (parse_scalar(f"u{j}/u{i}") - 1) / theta
    image = substitute(
        delta, {f"u{i}": RationalFunction.variable(f"u{4 - i}") for i in range(1, 4)}
    )
    expected = RationalFunction.one()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            expected = expected * (parse_scalar(f"u{4 - j}/u{4 - i}") - 1) / theta
    assert image == expected


def test_substitution_singular():
    f = parse_scalar("1/(q1+q2)")
    with pytest.raises(SubstitutionSingular):
        substitute(f, {"q1": -RationalFunction.variable("q2")})


def test_narrow_is_the_inverse_of_as_rf():
    p = parse_poly("u1^-1 + 2*q1")
    assert isinstance(narrow(as_rf(p)), LaurentPoly) and narrow(as_rf(p)) == p
    assert narrow(p) is p
    f = parse_scalar("1/(1+u1)")
    assert narrow(f) is f


def test_laurent_images_substitute_as_rational_ones():
    # LaurentPoly images, with a negative power of the non-monomial 1 + u1,
    # give the terms RationalFunction images give, and the value that
    # RationalFunction arithmetic gives power by power
    images = {"x1": "1+u1", "x2": "u1*u2^-1", "u2": "3", "q1": "q2+u1"}
    laurent = {v: parse_poly(t) for v, t in images.items()}
    rational = {v: parse_scalar(t) for v, t in images.items()}

    def by_rf(p):
        total = RationalFunction.zero()
        for m, c in p:
            term = RationalFunction.constant(c)
            for v, e in m:
                term = term * rational.get(v, RationalFunction.variable(v)) ** e
            total = total + term
        return total

    rng = random.Random(13)
    for _ in range(10):
        f = random_rf(rng, ["x1", "x2", "u2", "q1"]) * parse_scalar("x1^-2*x2^-1")
        got, want = substitute(f, laurent), substitute(f, rational)
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), f
        assert got == by_rf(f.num) / by_rf(f.den), f


# ----------------------------------------------------------------------
# lowest homogeneous component


def test_lowest_component_examples():
    p = parse_poly("1 + (u1-u2)*(u2-u3)")
    assert lowest_homogeneous_component(p, {"u1", "u2", "u3"}) == LaurentPoly.one()

    hom = parse_poly("(x1-y1)*(x2-y1)")
    assert lowest_homogeneous_component(hom, {"x1", "x2", "y1"}) == hom

    p = parse_poly("(x1+x2-x3-x5)*(1 + (x5-x4)*(x4-x2))")
    low = lowest_homogeneous_component(p, {f"x{i}" for i in range(1, 6)})
    assert low == parse_poly("x1+x2-x3-x5")


def test_lowest_component_errors():
    with pytest.raises(ZeroPolynomial):
        lowest_homogeneous_component(LaurentPoly.zero(), {"x1"})
    with pytest.raises(ValueError):
        lowest_homogeneous_component(V("x1") ** -1 + V("x2"), {"x1", "x2"})


@pytest.mark.parametrize(
    "error,build",
    [
        (ValueError, lambda: LaurentPoly.monomial({"x1": 1.5})),
        (ValueError, lambda: (V("x1") + 1).constant_value()),
        (ValueError, lambda: (V("x1") + 1) ** -1),
        (ZeroPolynomial, lambda: LaurentPoly.zero().leading()),
        (DivisionByZero, lambda: exact_div(V("x1"), LaurentPoly.zero())),
        # (q1+q2)^(2 * 2^13) is out of range
        (ExponentOverflow, lambda: clear_beta(LaurentPoly.variable(BETA, 1 << 13))),
        (SubstitutionSingular, lambda: substitute_poly(V("x1") ** -1, {"x1": LaurentPoly.zero()})),
        (DivisionByZero, lambda: RationalFunction.zero() ** -1),
    ],
    ids=[
        "non-int-exponent",
        "constant-value-of-non-constant",
        "negative-power-of-non-monomial",
        "leading-of-zero",
        "exact-division-by-zero",
        "clear-beta-overflow",
        "zero-for-an-inverted-variable",
        "inverse-of-zero-rational-function",
    ],
)
def test_each_refusal_raises(error, build):
    with pytest.raises(error):
        build()


# ----------------------------------------------------------------------
# gcd and exact division


def test_exact_division_roundtrip():
    rng = random.Random(13)
    names = ["x1", "x2", "y1"]
    for _ in range(12):
        p = random_poly(rng, names)
        d = LaurentPoly.zero()
        while d.is_zero:
            d = random_poly(rng, names, max_deg=2, max_terms=2)
        assert exact_div(p * d, d) == p


def test_exact_division_failure():
    with pytest.raises(ExactDivisionError):
        exact_div(parse_poly("x1^2 + y1"), parse_poly("x1 + y1"))


@pytest.mark.parametrize("p, d", [("y1", "y1^2"), ("q1*x1", "q1^2")])
def test_exact_division_refuses_a_negative_y_or_q_exponent(p, d):
    # the ordinary parts divide (1 / 1); only the monomial shift fails
    with pytest.raises(ExactDivisionError):
        exact_div(parse_poly(p), parse_poly(d))


def test_exact_division_inverts_an_x_monomial():
    assert exact_div(parse_poly("x1"), parse_poly("x1^2")) == parse_poly("x1^-1")


def test_gcd_divides_common_factor():
    rng = random.Random(17)
    names = ["u1", "u2", "q1"]
    for _ in range(8):
        r = LaurentPoly.zero()
        while r.is_zero or r.is_constant:
            r = random_poly(rng, names, max_deg=2, max_terms=2)
        p = random_poly(rng, names, max_deg=2, max_terms=2)
        q = random_poly(rng, names, max_deg=2, max_terms=2)
        g = poly_gcd(p * r, q * r)
        exact_div(g, r)  # must not raise: r divides the gcd
        exact_div(p * r, g)
        exact_div(q * r, g)


def test_divide_by_difference():
    # divided_difference(p) = (p - s p)/(x1 - x2); on an antisymmetric p the
    # numerator is 2p
    p = parse_poly("x1^3*x2 - x1*x2^3")
    q = divided_difference(p, "x1", "x2")
    assert q * (V("x1") - V("x2")) == 2 * p
    assert divided_difference(parse_poly("x1^2*y1"), "x1", "x2") == parse_poly(
        "(x1+x2)*y1"
    )
    assert divided_difference(parse_poly("x2^2*y1"), "x1", "x2") == parse_poly(
        "-(x1+x2)*y1"
    )
    assert divided_difference(parse_poly("x1*x2 + y1"), "x1", "x2").is_zero


def test_divided_difference_matches_its_definition():
    rng = random.Random(14)
    swap = {"x1": "x2", "x2": "x1"}
    for _ in range(150):
        p = LaurentPoly.zero()
        for _ in range(rng.randint(1, 6)):
            exps = {v: rng.randint(-3, 3) for v in ("x1", "x2", "x3", "u1")}
            exps["y1"] = rng.randint(0, 2)
            p = p + LaurentPoly.monomial(exps, rng.randint(-9, 9))
        q = divided_difference(p, "x1", "x2")
        assert q * (V("x1") - V("x2")) == p - rename_poly(p, swap), p


def test_divided_difference_on_an_asymmetric_denominator(monkeypatch):
    # (N/D - sN/sD)/(x_i - x_{i+1}) is d(N sD)/(D sD) over the symmetric
    # denominator D sD.  The quotient by x_i - x_{i+1} runs poly_gcd.
    # Before each pseudo-remainder had its rational content divided out,
    # the integers of the remainder sequence grew without bound (past 20
    # million bits within 41 pseudo-remainders) and the first f took more
    # than a minute.  With it, no coefficient of a pseudo-remainder here
    # passes 3233 bits, so a guard at 8192 bits fails a regression at once,
    # without a timer.
    prem = ybhecke.poly._prem

    def bounded_prem(A, B):
        R = prem(A, B)
        for c in R.values():
            for a in c.terms.values():
                bits = max(a.numerator.bit_length(), a.denominator.bit_length())
                assert bits <= 8192, "pseudo-remainder coefficients grew"
        return R

    monkeypatch.setattr(ybhecke.poly, "_prem", bounded_prem)
    rng = random.Random(9)
    start = time.process_time()
    for _ in range(12):
        f = random_probe(rng, 3) / (random_probe(rng, 3) + parse_poly("x1 + 2*x2"))
        for i in (1, 2):
            a, b = f"x{i}", f"x{i + 1}"
            swap = {a: b, b: a}
            want = (f - rename_rf(f, swap)) / (V(a) - V(b))
            sden = rename_poly(f.den, swap)
            got = RationalFunction(divided_difference(f.num * sden, a, b), f.den * sden)
            assert got == want, (f, i)
    assert time.process_time() - start < 2.0


# ----------------------------------------------------------------------
# the monomial kernels

# every family, BETA included; x10 sorts after x2 although "x10" < "x2"
KERNEL_VARS = (BETA, "q1", "q2", "u1", "u2", "u3", "y1", "y2", "x1", "x2", "x3", "x10")


def random_monomial(rng, cancel=()):
    """A canonical monomial over KERNEL_VARS; x/u exponents may be negative.
    Each x/u item of ``cancel`` is inverted with probability 1/2, so that its
    product with ``cancel`` drops that variable."""
    exps = {}
    for v in rng.sample(KERNEL_VARS, rng.randint(0, 5)):
        lo = -3 if var_parts(v)[0] in ("x", "u") else 1
        exps[v] = rng.choice([e for e in range(lo, 4) if e])
    for v, e in cancel:
        if var_parts(v)[0] in ("x", "u") and rng.random() < 0.5:
            exps[v] = -e
    (m,) = LaurentPoly.monomial(exps).terms
    return m


def random_kernel_poly(rng, max_terms=5):
    """A nonzero polynomial of up to ``max_terms`` random monomials."""
    p = LaurentPoly.zero()
    while p.is_zero:
        for _ in range(rng.randint(1, max_terms)):
            p = p + LaurentPoly({random_monomial(rng): rng.randint(-9, 9) or 1})
    return p


def assert_canonical(p):
    for m in p.terms:
        keys = [var_sort_key(v) for v, _ in m]
        assert keys == sorted(set(keys)), m  # strictly increasing
        assert all(type(e) is int and e for _, e in m), m


def mono_mul_reference(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    items = [(v, e) for v, e in exps.items() if e]
    return tuple(sorted(items, key=lambda item: var_sort_key(item[0])))


def test_mono_mul_matches_a_dict_and_sort_reference():
    # the product of two monomials is one addition of their packed keys
    rng = random.Random(15)
    cancelled = 0
    for _ in range(3000):
        m1 = random_monomial(rng)
        m2 = random_monomial(rng, cancel=m1)
        want = mono_mul_reference(m1, m2)
        a, b = LaurentPoly({m1: 2}), LaurentPoly({m2: 3})
        assert (a * b).terms == (b * a).terms == {want: 6}, (m1, m2)
        cancelled += len(want) < len({v for v, _ in m1 + m2})
    assert cancelled > 300  # exact cancellations were exercised


def test_monomial_kernels_return_canonical_monomials():
    rng = random.Random(16)
    pairs = [("x1", "x2"), ("x2", "x10"), ("u1", "u3"), ("y1", "y2"), ("q1", "q2")]
    for _ in range(60):
        p = random_kernel_poly(rng)
        for va, vb in pairs:
            if var_parts(va)[0] in ("y", "q") and any(
                e < 0 for m in p.terms for v, e in m if v in (va, vb)
            ):
                continue
            swap = {va: vb, vb: va}
            for a, b in ((va, vb), (vb, va)):
                q = divided_difference(p, a, b)
                assert_canonical(q)
                assert q * (V(a) - V(b)) == p - rename_poly(p, swap), (p, a, b)
        for v in KERNEL_VARS:
            parts = coefficients_in(p, v)
            for part in parts.values():
                assert_canonical(part)
                assert v not in part.variables(), (p, v)
            back = LaurentPoly.zero()
            for e, part in parts.items():
                back = back + part * LaurentPoly.monomial({v: e})
            assert back == p, (p, v)
        delta = dict(random_monomial(rng))
        delta = {v: e for v, e in delta.items() if var_parts(v)[0] in ("x", "u")}
        shifted = p * LaurentPoly.monomial(delta)
        assert_canonical(shifted)
        assert shifted * LaurentPoly.monomial({v: -e for v, e in delta.items()}) == p
        d = random_kernel_poly(rng, max_terms=3)
        quotient = exact_div(p * d, d)
        assert_canonical(quotient)
        assert quotient == p
        m = random_monomial(rng)
        m = tuple((v, e) for v, e in m if var_parts(v)[0] in ("x", "u"))
        mono = LaurentPoly({m: rng.choice((-2, 3))})
        for k in (1, 2):
            inverse = mono ** (-k)
            assert_canonical(inverse)
            assert inverse * mono**k == LaurentPoly.one()


def test_products_and_descents_build_no_monomial_from_a_dict(monkeypatch):
    # the hot kernels add and read digits of packed keys; only the entry
    # points that take a mapping pack, and only the public views decode
    rng = random.Random(17)
    ps = [random_kernel_poly(rng) for _ in range(20)]
    monos = []
    for p in ps:
        (m, _), *_ = p.terms.items()
        m = tuple((v, e) for v, e in m if var_parts(v)[0] in ("x", "u"))
        monos.append(LaurentPoly({m: 2}))
    want = [(p * q, divided_difference(p, "x2", "x1")) for p, q in zip(ps, ps[1:])]
    monkeypatch.setattr(ybhecke.poly, "_pack", None)
    monkeypatch.setattr(ybhecke.poly, "_decode", None)
    got = []
    for p, q, mono in zip(ps, ps[1:], monos):
        got.append((p * q, divided_difference(p, "x2", "x1")))
        for v in ("x1", "u2", BETA):
            coefficients_in(p, v)
        mono ** -2
        clear_beta(p)
        rename_poly(p, {"x1": "u1", "u1": "x1"})
    monkeypatch.undo()
    assert [(a.terms, b.terms) for a, b in got] == [(a.terms, b.terms) for a, b in want]


# A tuple reference of the kernels: a polynomial is a dict from canonical
# (variable, exponent) tuples to Fractions, built with dict arithmetic only.


def ref_of(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


def ref_clean(terms):
    out = {}
    for exps, c in terms:
        m = tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda it: var_sort_key(it[0])))
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    terms = []
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            terms.append((exps, c1 * c2))
    return ref_clean(terms)


def ref_rename(a, varmap):
    terms = []
    for m, c in a.items():
        exps = {}
        for v, e in m:
            t = varmap.get(v, v)
            exps[t] = exps.get(t, 0) + e
        terms.append((exps, c))
    return ref_clean(terms)


def ref_sum(*polys):
    return ref_clean((dict(m), c) for p in polys for m, c in p.items())


def assert_matches(p, ref):
    assert p.terms == ref, (p, ref)
    for c in p.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), (p, c)


def test_packed_kernels_match_a_tuple_reference():
    # Randomized, seed 25; every comparison is exact.
    rng = random.Random(25)
    theta2 = ref_mul(*[ref_of(parse_poly("q1 + q2"))] * 2)
    q1q2 = ref_of(parse_poly("q1*q2"))
    cancelled = 0
    for _ in range(150):
        p, q = random_kernel_poly(rng), random_kernel_poly(rng)
        if rng.random() < 0.5:
            p = p * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        # q shares some terms of p with opposite coefficients, so sums cancel
        part = LaurentPoly({m: c for m, c in p.terms.items() if rng.random() < 0.5})
        q = q - part
        a, b = ref_of(p), ref_of(q)
        assert_matches(p * q, ref_mul(a, b))
        assert_matches(p + q, ref_sum(a, b))
        cancelled += len(p + q) < len(p) + len(q)
        delta = {v: rng.randint(-3, 3) for v in rng.sample(KERNEL_VARS, 3)}
        delta = {v: e for v, e in delta.items() if var_parts(v)[0] in ("x", "u")}
        monomial = LaurentPoly.monomial(delta)
        assert_matches(p * monomial, ref_mul(a, ref_of(monomial)))
        for v in rng.sample(KERNEL_VARS, 3):
            parts = coefficients_in(p, v)
            want: dict = {}
            for m, c in a.items():
                e = dict(m).get(v, 0)
                want.setdefault(e, {})[tuple(it for it in m if it[0] != v)] = c
            assert {e: part.terms for e, part in parts.items()} == want, (p, v)
        va, vb = rng.sample(("x1", "x2", "x10", "u1", "u3"), 2)
        d = divided_difference(p, va, vb)
        diff = ref_mul(ref_of(d), ref_of(V(va) - V(vb)))
        swapped = {m: -c for m, c in ref_rename(a, {va: vb, vb: va}).items()}
        assert diff == ref_sum(a, swapped), (p, va, vb)
        assert_matches(d, ref_of(d))
        varmap = dict(zip(rng.sample(("x1", "x2", "x3", "u1", "u2"), 3),
                          rng.choices(("x1", "x2", "u1", "u2", "u3"), k=3)))
        assert_matches(rename_poly(p, varmap), ref_rename(a, varmap))
        beta = p * LaurentPoly.variable(BETA, rng.randint(0, 2)) + q
        n, k = clear_beta(beta)
        parts = {}
        for m, c in ref_of(beta).items():
            e = dict(m).get(BETA, 0)
            parts.setdefault(e, {})[tuple(it for it in m if it[0] != BETA)] = c
        want = {}
        for j, part in parts.items():
            term = part
            for _ in range(j):
                term = ref_mul(term, q1q2)
            for _ in range(k - j):
                term = ref_mul(term, theta2)
            want = ref_sum(want, term)
        assert_matches(n, want if k else ref_of(beta))
    assert cancelled > 50
    for p in (random_kernel_poly(rng) * random_kernel_poly(rng) for _ in range(20)):
        for w in permutations((1, 2, 3)):
            varmap = {f"x{i}": f"u{w[i - 1]}" for i in (1, 2, 3)}
            varmap.update({f"y{j}": f"u{j}" for j in (1, 2, 3)})
            assert_matches(specialize_double(p, Permutation(w)), ref_rename(ref_of(p), varmap))


def _beta_cleared_by_split(p):
    # p = sum_j P_j BETA^j of degree K gives sum_j P_j (q1*q2)^j (q1+q2)^(2K-2j)
    parts = coefficients_in(p, BETA)
    top = max(parts, default=0)
    if not top:
        return p, 0
    q1, q2 = V("q1"), V("q2")
    terms = ((part, (q1 * q2) ** j * (q1 + q2) ** (2 * (top - j))) for j, part in parts.items())
    return sum_of_products(terms), top


def test_clear_beta_at_the_digit_edges_is_the_split(monkeypatch):
    # u1..u8 fill the slots below BETA's; their exponents at the ends of
    # [-2^14, 2^14) give the largest and smallest keys that skip the split
    edge = 1 << 14
    top = LaurentPoly.monomial({f"u{i}": edge - 1 for i in range(1, 9)})
    bottom = LaurentPoly.monomial({f"u{i}": -edge for i in range(1, 9)})
    free = top - 3 * bottom + 2
    cases = [
        free,
        LaurentPoly.zero(),
        free + top * V("x1"),
        free + bottom * V("x1"),
        free + top * LaurentPoly.variable("x1", -1),
        free - bottom * V("q2"),
        free + bottom * V(BETA),
        top * V(BETA) - 5 * bottom,
    ]
    for p in cases:
        got, want = clear_beta(p), _beta_cleared_by_split(p)
        assert (got[0].terms, got[1]) == (want[0].terms, want[1]), p
    monkeypatch.setattr(ybhecke.poly, "coefficients_in", None)
    assert clear_beta(free) == (free, 0)


def test_exponent_vectors_refuse_a_variable_outside_the_names():
    p = parse_poly("x1^2*x3 - 4")
    assert exponent_vectors(p, ["x1", "x2", "x3"]) == [((2, 0, 1), 1), ((0, 0, 0), -4)]
    with pytest.raises(ValueError, match="outside"):
        exponent_vectors(p * V("y1"), ["x1", "x2", "x3"])


def test_kernels_keep_integral_values_as_ints():
    # sums and products of non-integral Fractions that come out integral
    cases = [
        parse_poly("1/2*x1 + 1/2") * parse_poly("2*x1 + 2"),
        rename_poly(parse_poly("1/2*x1 + 1/2*x2"), {"x1": "u1", "x2": "u1"}),
        parse_poly("1/2*x1 + 1/3") + parse_poly("1/2*x1 + 2/3"),
        parse_poly("1/2*x1 + 1/2") * 2,
        divided_difference(parse_poly("1/2*x1^3 + 1/2*x1^2*x2"), "x1", "x2"),
        specialize_double(parse_poly("1/2*x1*y2 + 1/2*x2*y1"), Permutation((1, 2))),
        clear_beta(LaurentPoly({(): Fraction(1, 2), ((BETA, 1),): 1}))[0],
    ]
    want = ["x1^2 + 2*x1 + 1", "u1", "x1 + 1", "x1 + 1", "1/2*x1^2 + x1*x2 + 1/2*x2^2",
            "u1*u2", "1/2*q1^2 + 2*q1*q2 + 1/2*q2^2"]
    assert [str(p) for p in cases] == want
    for p in cases:
        assert Fraction(1) not in {c for c in p.terms.values() if type(c) is Fraction}, p


def test_an_exponent_at_the_digit_bound_raises():
    limit = ybhecke.poly._LIMIT
    top = LaurentPoly.variable("x1", limit - 1)
    assert V("x1") ** (limit - 1) == top
    assert (top * V("x2")).terms == {(("x1", limit - 1), ("x2", 1)): 1}
    for overflow in (
        lambda: top * (V("x1") + 1),
        lambda: V("x1") ** limit,
        lambda: (V("x1") * V("u2") ** -1) ** limit,
        lambda: LaurentPoly.variable("u1", -limit) * V("u1") ** -1,
        lambda: LaurentPoly.variable("x1", -limit) ** -1,
        lambda: LaurentPoly.variable("y1", limit - 1) * (V("y1") + 1),
        lambda: top * LaurentPoly.monomial({"x1": 1}),
        lambda: rename_poly(top * V("x2"), {"x2": "x1"}),
        lambda: rename_poly(top * V("x2") * V("x3"), {"x2": "x1", "x3": "x1"}),
        lambda: rename_poly(top * V("u1") ** -1 * V("x3") ** 2, {"u1": "x1", "x3": "x1"}),
        lambda: _specialize_swapped(top * V("y2"), Permutation((2, 1))),
        # the two terms cancel, yet their image u1*u2^limit is out of range
        lambda: specialize_double(
            (V("x1") - V("y1")) * LaurentPoly.variable("x2", limit - 1) * V("y2"),
            Permutation((1, 2)),
        ),
        # four exponents of limit - 1 sum to 2^16 - 4, which would wrap into
        # the next slot and leave an exponent -4 that looks valid
        lambda: rename_poly(
            LaurentPoly.monomial({v: limit - 1 for v in ("x1", "x2", "x3", "x10")}),
            {"x2": "x1", "x3": "x1", "x10": "x1"},
        ),
        # a quotient term of a division that is not exact grows x1 past the range
        lambda: exact_div(
            LaurentPoly.monomial({f"x{i}": limit - 1 for i in range(1, 6)}) + 1,
            LaurentPoly.monomial({"x2": 1, "x3": 1, "x4": 1, "x5": 1}) + V("x1") ** 3,
        ),
        lambda: LaurentPoly({(("x1", limit),): 1}),
        lambda: LaurentPoly.monomial({"q2": limit}),
        lambda: LaurentPoly.variable("x1", 1 << 16),
        lambda: V("x2") * LaurentPoly.monomial({"x1": -(1 << 16)}),
    ):
        with pytest.raises(ExponentOverflow):
            overflow()
    # the neighbouring slots are untouched when one stays just inside
    assert (top * V("x1") ** -1 * V("x2")).terms == {(("x1", limit - 2), ("x2", 1)): 1}


def test_terms_round_trip():
    rng = random.Random(26)
    for _ in range(100):
        p = random_kernel_poly(rng, max_terms=8)
        assert LaurentPoly(p.terms) == p
        assert LaurentPoly(p.terms).terms == p.terms == dict(p)
        assert_canonical(p)
        assert p.variables() == {v for m in p.terms for v, _ in m}


def test_simplify_reduces():
    f = RationalFunction(
        parse_poly("(x1-y1)*(x1+y1)"), parse_poly("(x1-y1)*(x2-y1)")
    )
    s = f.simplify()
    assert s == f
    assert s.den == parse_poly("x2 - y1")


def _cmp_display(m1, m2):
    # The rendering order as a pairwise comparison: total degree, then the
    # exponents with x1 as the most significant variable.
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1, e2 = dict(m1), dict(m2)
    for v in sorted(set(e1) | set(e2), key=_display_key):
        a, b = e1.get(v, 0), e2.get(v, 0)
        if a != b:
            return 1 if a > b else -1
    return 0


def test_display_key_orders_like_the_display_comparison():
    by_cmp = cmp_to_key(_cmp_display)
    polys = [*schubert_table(4).values(), *grothendieck_table(4).values()]
    polys.append(parse_poly("q1*q2 - 2*q1^2*u1 + u1^-1*x2 + 3*y1*y2^2 - x1^-2*u3"))
    for p in polys:
        got = [m for m, _ in display_terms(p)]
        assert got == sorted(p.terms, key=by_cmp, reverse=True)


def _schoolbook_product(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple((v, e) for v, e in exps.items() if e)
            out[m] = out.get(m, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return LaurentPoly(out)


def test_products_match_the_schoolbook_product():
    rng = random.Random(21)
    names = ("q1", "u1", "u2", "x1", "x2", "y1")
    inverse = parse_poly("u1^-1 - 2*x2^-1 + 3*x1^-2*u2")
    half = parse_poly("1/2*x1 - 3/2*u1^-1*q2 + 5")
    pairs = [(random_poly(rng, names), random_poly(rng, names)) for _ in range(20)]
    pairs += [(random_poly(rng, names) * inverse, inverse) for _ in range(5)]
    pairs += [(random_poly(rng, names), half) for _ in range(5)]
    pairs += [(half, half), (half, inverse)]
    # products whose images cancel: cross terms, and Laurent terms
    pairs += [
        (parse_poly("x1 - y1"), parse_poly("x1 + y1")),
        (parse_poly("x1 - x1^-1"), parse_poly("x1 + x1^-1")),
        (parse_poly("1/2*x1 - 1/2*q1"), parse_poly("2*x1 + 2*q1")),
        (parse_poly("u1*q2 - u1^-1"), parse_poly("u1*q2 + u1^-1")),
    ]
    for p, q in pairs:
        got = p * q
        want = _schoolbook_product(p, q)
        assert got.terms == want.terms, (p, q)
        assert_stored_exactly(got, integral(p, q))
    assert (parse_poly("x1 - y1") * parse_poly("x1 + y1")).terms == (
        parse_poly("x1^2 - y1^2").terms
    )


def test_one_term_products_match_the_schoolbook_product():
    # a one-term operand, a constant included, on either side shifts the
    # other operand's keys: the same terms, stored as the same types, as the
    # schoolbook product, and ExponentOverflow exactly where the schoolbook
    # product and a product by three terms raise
    rng = random.Random(2901)
    names = ("q1", "u1", "u2", "x1", "x2", "y1")
    limit = ybhecke.poly._LIMIT

    def coeff():
        c = rng.randint(-9, 9) or 1
        return c if rng.random() < 0.5 else Fraction(c, rng.randint(2, 4))

    def exponent(v, edge):
        if var_parts(v)[0] in ("x", "u"):
            return rng.choice([-limit, -limit + 1, limit - 2, limit - 1] if edge else [-3, -1, 1, 2])
        return rng.choice([limit - 2, limit - 1] if edge else [1, 2])

    def one_term(edge=False):
        exps = {v: exponent(v, edge) for v in rng.sample(names, rng.randint(0, 3))}
        return LaurentPoly.monomial(exps, coeff())

    def poly():
        # three terms at least, so that p * (mono + q2 + q2**2) merges
        # three shifts of p
        p = LaurentPoly.zero()
        while len(p) < 3:
            for _ in range(rng.randint(2, 5)):
                p = p + one_term()
        return p

    kinds = set()
    for _ in range(300):
        p = poly()
        mono = LaurentPoly.constant(coeff()) if rng.random() < 0.25 else one_term()
        want = stored(_schoolbook_product(p, mono))
        assert stored(p * mono) == want == stored(mono * p), (p, mono)
        kinds.update(type(c) for c, _ in want.values())
    assert kinds == {int, Fraction}

    raised = 0
    q2 = LaurentPoly.variable("q2")  # no operand has q2: nothing cancels
    for _ in range(300):
        p, mono = poly(), one_term(edge=True)
        try:
            want = stored(_schoolbook_product(p, mono))
        except ExponentOverflow:
            raised += 1
            for mul in (lambda: p * mono, lambda: mono * p, lambda: p * (mono + q2 + q2**2)):
                with pytest.raises(ExponentOverflow):
                    mul()
            continue
        assert stored(p * mono) == want == stored(mono * p), (p, mono)
        assert p * (mono + q2 + q2**2) == p * mono + p * q2 + p * q2**2
    assert 30 < raised < 270


def _edge_test_operands(seed):
    """A seeded rng and two makers of random operands over q1, u1, u2, x1,
    x2, y1: one-term polynomials, whose coefficient is a nonzero int or
    Fraction and whose exponents lie near 0 (negative on x and u) or, at the
    edge, near the ends of the digit range; and sums of exactly k of them."""
    rng = random.Random(seed)
    names = ("q1", "u1", "u2", "x1", "x2", "y1")
    limit = ybhecke.poly._LIMIT

    def coeff():
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        return c if rng.random() < 0.5 else Fraction(c, rng.randint(2, 4))

    def one_term(edge=False):
        exps = {}
        for v in rng.sample(names, rng.randint(0, 3)):
            if var_parts(v)[0] in ("x", "u"):
                exps[v] = rng.choice([-limit, -limit + 1, limit - 2, limit - 1] if edge else [-2, -1, 1, 2])
            else:
                exps[v] = rng.choice([limit - 2, limit - 1] if edge else [1, 2])
        return LaurentPoly.monomial(exps, coeff())

    def poly(k):
        p = LaurentPoly.zero()
        while len(p) != k:
            p = p + one_term() if len(p) < k else LaurentPoly.zero()
        return p

    return rng, one_term, poly


def test_multi_term_products_match_the_schoolbook_product():
    # an operand of two to four terms, on either side, shifts the other
    # operand by each of its keys and merges the shifts: the same terms,
    # stored as the same types, as the schoolbook product, and no zero
    # stored where the shifts cancel, a key that cancels on one shift and
    # returns on a later one included
    rng, one_term, poly = _edge_test_operands(4501)
    kinds, cancelled = set(), [0, 0]
    cases = []
    for _ in range(300):
        cases.append((poly(rng.randint(2, 6)), poly(rng.randint(2, 4))))
    for _ in range(100):
        # g*(1 + t + ... + t^k) * c*(1 - t) telescopes to c*g*(1 - t^(k+1))
        t, c, g = one_term(), rng.choice([1, -1, Fraction(1, 2), Fraction(-2, 3)]), one_term()
        while t.is_constant:
            t = one_term()
        p = sum((g * t**e for e in range(rng.randint(2, 5))), LaurentPoly.zero())
        cases.append((p, c * (1 - t)))
        # g*(1 + t)*r * c*(1 - t + t^2) is c*g*r*(1 + t^3): the t-shift
        # cancels a term that the t^2-shift puts back
        cases.append((g * (1 + t) * poly(rng.randint(1, 2)), c * (1 - t + t**2)))
    for p, b in cases:
        assert len(b) >= 2
        want = stored(_schoolbook_product(p, b))
        for got in (p * b, b * p):
            assert stored(got) == want, (p, b)
            assert all(got._terms.values()), (p, b)
        kinds.update(type(c) for c, _ in want.values())
        cancelled[len(b) > 2] += len(want) < len(p) * len(b)
    assert kinds == {int, Fraction}
    assert min(cancelled) >= 100


def test_multi_term_products_overflow_where_the_schoolbook_product_does():
    rng, one_term, poly = _edge_test_operands(4502)
    raised = 0
    for _ in range(300):
        p = poly(rng.randint(2, 5))
        b = one_term(edge=True) + sum(
            (one_term(edge=rng.random() < 0.5) for _ in range(rng.randint(1, 2))), LaurentPoly.zero()
        )
        if len(b) < 2:
            continue
        try:
            want = stored(_schoolbook_product(p, b))
        except ExponentOverflow:
            raised += 1
            for mul in (lambda: p * b, lambda: b * p):
                with pytest.raises(ExponentOverflow):
                    mul()
            continue
        assert stored(p * b) == want == stored(b * p), (p, b)
    assert 30 < raised < 270


def test_polynomial_over_one_is_already_normal():
    rng = random.Random(22)
    polys = [
        parse_poly("3*u1^-1*q1 - 6*x2^-1*u2 + 9*q2^2*x1 + 12"),
        parse_poly("1/2*x1^-1*y1 - u2^-2*q1*q2 + 7/3*q2"),
        parse_poly("-q1 + u1^-1*x1^-1"),
    ]
    polys += [
        random_poly(rng, ("q1", "u1", "x1")) * parse_poly("u1^-1 - x1^-1 + q2")
        for _ in range(10)
    ]
    for p in polys:
        for k in (2, -2):
            # a denominator other than 1 takes the full normalisation path
            full = RationalFunction(k * p, LaurentPoly.constant(k))
            fast = RationalFunction(p)
            assert fast.num.terms == full.num.terms == p.terms, p
            assert fast.den.terms == full.den.terms == {(): Fraction(1)}
            for f in (fast, full):
                assert_stored_exactly(f.num, integral(p))
                assert_stored_exactly(f.den, integral=True)


# ----------------------------------------------------------------------
# stored coefficients: exact, ints where integral, never a float


@pytest.mark.parametrize(
    "make",
    [
        lambda: LaurentPoly.constant(0.1),
        lambda: LaurentPoly({(("x1", 1),): 0.5}),
        lambda: LaurentPoly({(("x1", 1),): 0.0}),
        lambda: LaurentPoly.monomial({"x1": 2}, 0.25),
        lambda: RationalFunction(0.5),
        lambda: RationalFunction(LaurentPoly.one(), 0.5),
        lambda: RationalFunction.constant(1.0),
        lambda: V("x1").map_coefficients(float),
    ],
    ids=["constant", "init", "init-zero", "monomial", "rf-num", "rf-den",
         "rf-constant", "map-coefficients"],
)
def test_float_coefficients_are_rejected(make):
    with pytest.raises(TypeError):
        make()


def test_integral_values_are_stored_as_ints():
    assert LaurentPoly.constant(True).terms == {(): 1}
    assert type(LaurentPoly.constant(True).constant_value()) is int
    p = LaurentPoly({(("x1", 1),): Fraction(4, 2), (("x2", 1),): Fraction(1, 2)})
    assert {type(c) for c in p.terms.values()} == {int, Fraction}
    assert type(LaurentPoly.monomial({"x1": 1}, Fraction(-3, 1)).coefficient({"x1": 1})) is int
    # terms of one monomial that meet in the constructor are stored once, as an int
    merged = LaurentPoly({(("x1", 1), ("x2", 1)): Fraction(1, 2),
                          (("x2", 1), ("x1", 1)): Fraction(1, 2)})
    assert merged.terms == {(("x1", 1), ("x2", 1)): 1}
    assert_stored_exactly(merged, integral=True)
    for p in (LaurentPoly.one(), V("x1"), LaurentPoly.variable("u2", -3)):
        assert_stored_exactly(p, integral=True)


def test_exact_division_by_a_constant_is_exact():
    p = parse_poly("4*x1 + 3*y1 - 6")
    got = exact_div(p, LaurentPoly.constant(2))
    assert got.terms == {(("x1", 1),): 2, (("y1", 1),): Fraction(3, 2), (): -3}
    assert_stored_exactly(got, integral=False)
    assert type(got.coefficient({"x1": 1})) is int
    got = exact_div(p, LaurentPoly.constant(Fraction(1, 3)))
    assert got == parse_poly("12*x1 + 9*y1 - 18")
    assert_stored_exactly(got, integral=True)


def test_exact_division_by_a_polynomial_is_exact():
    d = parse_poly("2*x1 + 1")
    # every quotient coefficient c / lead(d) is an integer
    got = exact_div(d * parse_poly("3*x1 - 1"), d)
    assert got == parse_poly("3*x1 - 1")
    assert_stored_exactly(got, integral=True)
    # and none is
    got = exact_div(parse_poly("x1 + 1") * d, parse_poly("4*x1 + 2"))
    assert got.terms == {(("x1", 1),): Fraction(1, 2), (): Fraction(1, 2)}
    assert_stored_exactly(got, integral=False)


def test_negative_power_of_a_monomial_is_exact():
    got = LaurentPoly.monomial({"x1": 1, "u2": -1}, 2) ** -1
    assert got.terms == {(("u2", 1), ("x1", -1)): Fraction(1, 2)}
    got = LaurentPoly.monomial({"x1": 1}, Fraction(1, 3)) ** -2
    assert got.terms == {(("x1", -2),): 9}
    assert_stored_exactly(got, integral=True)
    got = (-V("u1")) ** -3
    assert got.terms == {(("u1", -3),): -1}
    assert_stored_exactly(got, integral=True)


@pytest.mark.parametrize("c", [1, -1, 2, Fraction(1, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_negative_power_of_a_monomial_matches_the_inverted_coefficient(c, k):
    got = LaurentPoly.monomial({"u1": 2, "x2": -1}, c) ** -k
    # the route that always inverted through Fraction(1, c)
    want = LaurentPoly.monomial({"u1": -2, "x2": 1}, Fraction(1, c)) ** k
    assert [(m, type(v), v) for m, v in got.terms.items()] == [
        (m, type(v), v) for m, v in want.terms.items()
    ]


@pytest.mark.parametrize("c", [1, -1])
def test_negative_power_of_a_unit_monomial_builds_no_fraction(c, monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    mono = LaurentPoly.monomial({"u1": 1, "u3": -2}, c)
    monkeypatch.setattr(ybhecke.poly, "Fraction", NoFraction)
    got = mono ** -3
    monkeypatch.undo()
    assert got.terms == {(("u1", -3), ("u3", 6)): c}
    assert_stored_exactly(got, integral=True)


def test_normalisation_divides_exactly():
    f = RationalFunction(parse_poly("2*x1 + 4"), LaurentPoly.constant(-6))
    assert f.num.terms == {(("x1", 1),): Fraction(-1, 3), (): Fraction(-2, 3)}
    assert f.den.terms == {(): 1}
    assert_stored_exactly(f.den, integral=True)
    g = poly_gcd(parse_poly("4*x1 - 6"), parse_poly("6*x1 - 9"))
    assert g.terms == {(("x1", 1),): 2, (): -3}
    assert_stored_exactly(g, integral=True)


# ----------------------------------------------------------------------
# normalisation from the denominator


def _cmp_canonical(m1, m2):
    # The canonical order as a pairwise comparison: total degree, then the
    # exponents with the largest variable as the most significant.
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1, e2 = dict(m1), dict(m2)
    for v in sorted(set(e1) | set(e2), key=var_sort_key, reverse=True):
        a, b = e1.get(v, 0), e2.get(v, 0)
        if a != b:
            return 1 if a > b else -1
    return 0


def min_exponents_reference(p):
    # each variable's minimum over every term, one dict per term
    monos = [dict(m) for m in p.terms]
    out = {}
    for v in {v for m in monos for v in m}:
        low = min(m.get(v, 0) for m in monos)
        if low:
            out[v] = low
    return out


def normalise_reference(num, den):
    """num/den normalised with every term of both sides read: x/u powers of
    the denominator move up, y/q factors shared by both sides cancel, and
    the denominator is made primitive with a positive leading coefficient."""
    a, b = min_exponents_reference(num), min_exponents_reference(den)
    shift = {}
    for v in set(a) | set(b):
        if var_parts(v)[0] in ("x", "u"):
            c = b.get(v, 0)
        else:
            c = min(a.get(v, 0), b.get(v, 0))
        if c:
            shift[v] = -c
    # each term moved by the shift: a y/q part of it divides, which no
    # monomial LaurentPoly can carry
    move = tuple(shift.items())
    num, den = (LaurentPoly({mono_mul_reference(m, move): c for m, c in p}) for p in (num, den))
    lead = max(den.terms, key=cmp_to_key(_cmp_canonical))
    s = den.content() if den.terms[lead] > 0 else -den.content()
    return num.map_coefficients(lambda x: x / s), den.map_coefficients(lambda x: x / s)


def test_leading_term_is_the_canonical_maximum():
    rng = random.Random(24)
    for _ in range(500):
        p = random_kernel_poly(rng, max_terms=8)
        m, c = p.leading()
        assert m == max(p.terms, key=cmp_to_key(_cmp_canonical)), p
        assert c == p.terms[m]


def test_normalisation_reads_the_denominator_like_the_all_terms_reference():
    # Randomized, seed 23; every comparison is exact.
    rng = random.Random(23)
    seen = {"shared y/q": 0, "u in den": 0, "content": 0, "negative lead": 0}
    for _ in range(600):
        num, den = random_kernel_poly(rng), random_kernel_poly(rng, max_terms=4)
        common = LaurentPoly.monomial({v: rng.randint(0, 2) for v in (BETA, "q2", "y1")})
        num = num * common
        den = den * common * LaurentPoly.monomial({"u2": rng.randint(-2, 2)})
        den = den * Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
        for p in (num, den, num * den):
            assert p.min_exponents() == min_exponents_reference(p), p
        want_num, want_den = normalise_reference(num, den)
        f = RationalFunction(num, den)
        assert f.num.terms == want_num.terms, (num, den)
        assert f.den.terms == want_den.terms, (num, den)
        low = min_exponents_reference(den)
        seen["shared y/q"] += any(
            var_parts(v)[0] not in ("x", "u") and min_exponents_reference(num).get(v)
            for v in low
        )
        seen["u in den"] += any(var_parts(v)[0] == "u" for v in low)
        seen["content"] += den.content() != 1
        seen["negative lead"] += den.leading()[1] < 0
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "-n", "3"),
        ("gram", "-n", "3", "--family", "sigma", "--spectral", "1/2,3,5/7"),
        ("yb", "-n", "4", "4321", "--family", "T", "--q1", "2", "--q2", "-1"),
    ],
    ids=["verify-all", "gram-sigma-rational", "yb-T-numeric"],
)
def test_no_float_or_zero_coefficient_is_ever_stored(monkeypatch, capsys, argv):
    from ybhecke.cli import main

    raw = LaurentPoly._raw.__func__
    seen = []

    def checked(cls, terms):
        for c in terms.values():
            assert type(c) in (int, Fraction) and c != 0, (terms, c)
        seen.append(len(terms))
        return raw(cls, terms)

    monkeypatch.setattr(LaurentPoly, "_raw", classmethod(checked))
    assert main(list(argv)) == 0
    assert capsys.readouterr().out
    assert sum(seen) > 0


def test_trusted_maker_keeps_a_normal_pair_and_zero_is_zero_over_one():
    theta3 = parse_poly("(q1 + q2)^3")
    num = parse_poly("u1^-1*u3 - 2*u2 + 1/2")
    f = RationalFunction._normal(num, theta3)
    assert f.num is num and f.den is theta3
    want = RationalFunction(num, theta3)
    assert (f.num.terms, f.den.terms) == (want.num.terms, want.den.terms)
    zero = RationalFunction._normal(LaurentPoly.zero(), theta3)
    assert (zero.num.terms, zero.den.terms) == ({}, {(): 1})
    assert zero == 0 and str(zero) == "0"
    neg = -f
    assert (neg.num.terms, neg.den.terms) == ((-num).terms, theta3.terms)


@pytest.mark.parametrize(
    "text, unit",
    [("u1", True), ("-2*u1^-1*u2^3", True), ("x1*x2^-1", True), ("3", True),
     ("1/2*x1*u1", True), ("0", False), ("q1", False), ("y1", False),
     ("u1*q2", False), ("u1 + u2", False), ("1 + u1", False)],
)
def test_a_unit_is_one_term_in_the_invertible_variables(text, unit):
    p = parse_poly(text)
    assert p.is_unit is unit
    if unit:
        assert p * p ** -1 == 1


# ----------------------------------------------------------------------
# sum_of_products: one accumulation for sum a_i * b_i


def products_then_sum(pairs):
    return sum((a * b for a, b in pairs), LaurentPoly.zero())


def stored(p):
    """The stored term map with each coefficient's type."""
    return {m: (c, type(c)) for m, c in p._terms.items()}


def random_scaled_poly(rng):
    """A random kernel polynomial, scaled by a Fraction half the time."""
    p = random_kernel_poly(rng, max_terms=4)
    if rng.random() < 0.5:
        p = p * LaurentPoly.constant(Fraction(rng.choice([-3, -1, 1, 5]), rng.choice([2, 3, 6])))
    return p


def test_sum_of_products_matches_products_then_sum():
    rng = random.Random(2501)
    for _ in range(200):
        pairs = [(random_scaled_poly(rng), random_scaled_poly(rng))
                 for _ in range(rng.randint(1, 6))]
        assert stored(sum_of_products(pairs)) == stored(products_then_sum(pairs)), pairs


def test_sum_of_products_stores_an_integral_fraction_sum_as_int():
    half = LaurentPoly.constant(Fraction(1, 2))
    third = LaurentPoly.monomial({"u1": -1, "q1": 2}, Fraction(1, 3))
    pairs = [(half, V("x1")), (V("x1"), half), (third, V("y1")), (V("y1") * 2, third)]
    got = sum_of_products(pairs)
    assert stored(got) == stored(products_then_sum(pairs))
    assert got.terms == {(("x1", 1),): 1, (("q1", 2), ("u1", -1), ("y1", 1)): 1}
    assert all(type(c) is int for c in got.terms.values())


def test_sum_of_products_drops_a_cancelled_sum_and_sums_nothing_to_zero():
    a, b = parse_poly("x1 - 1/2*u1^-1"), parse_poly("y1*q2 + 3")
    for pairs in ([(a, b), (-a, b)], [(a, b), (b, -a)], []):
        got = sum_of_products(pairs)
        assert got._terms == {} and got.is_zero and got == products_then_sum(pairs)


def test_sum_of_products_overflows_exactly_where_the_products_do():
    # exponents at and past 2^13 leave the unchecked range of the kernel; it
    # must raise on the same inputs as a * b, and agree with it otherwise
    rng = random.Random(2502)
    half = ybhecke.poly._LIMIT // 2
    raised = 0

    def near(v):
        low = [-half - 2, -3] if var_parts(v)[0] in ("x", "u") else []
        return rng.choice(low + [0, 2, half - 2, half - 1, half, half + 1, half + 3])

    def poly():
        p = LaurentPoly.zero()
        for _ in range(rng.randint(1, 3)):
            exps = {v: near(v) for v in rng.sample(["x1", "u2", "y1", "q1"], 2)}
            p = p + LaurentPoly.monomial(exps, rng.randint(-3, 3) or 1)
        return p

    for _ in range(300):
        pairs = [(poly(), poly()) for _ in range(rng.randint(1, 3))]
        try:
            want = stored(products_then_sum(pairs))
        except ExponentOverflow:
            raised += 1
            with pytest.raises(ExponentOverflow):
                sum_of_products(pairs)
            continue
        assert stored(sum_of_products(pairs)) == want, pairs
    assert 30 < raised < 270
    # a product out of range raises even where the sum would cancel it
    big = LaurentPoly.variable("x1", half)
    with pytest.raises(ExponentOverflow):
        products_then_sum([(big, big), (-big, big)])
    with pytest.raises(ExponentOverflow):
        sum_of_products([(big, big), (-big, big)])
    assert str(sum_of_products([(big, LaurentPoly.variable("x1", half - 1))])) == (
        f"x1^{2 * half - 1}"
    )


# ----------------------------------------------------------------------
# sums_of_products: many sums that share their left operands


def sums_then_reference(operands, width):
    sums = [LaurentPoly.zero() for _ in range(width)]
    for a, entries in operands:
        for i, b in entries:
            sums[i] = sums[i] + a * b
    return sums


def random_operands(rng, width, poly):
    """Left operands, each listed with a few (sum index, right operand)
    pairs; every other one repeats an earlier product negated, so some sums
    cancel in full."""
    operands = []
    for _ in range(rng.randint(0, 5)):
        a = poly()
        entries = [(rng.randrange(width), poly()) for _ in range(rng.randint(0, 3))]
        operands.append((a, entries))
        if rng.random() < 0.5:
            operands.append((-a, list(entries)))
    return operands


def test_sums_of_products_matches_products_then_sums():
    rng = random.Random(3601)
    cancelled = 0
    for _ in range(200):
        width = rng.randint(1, 4)
        operands = random_operands(rng, width, lambda: random_scaled_poly(rng))
        got = sums_of_products(operands, width)
        want = sums_then_reference(operands, width)
        assert [stored(p) for p in got] == [stored(p) for p in want], operands
        cancelled += sum(1 for p in got if p.is_zero)
    assert cancelled > 50


def test_sums_of_products_stores_an_integral_fraction_sum_as_int():
    half = LaurentPoly.constant(Fraction(1, 2))
    third = LaurentPoly.monomial({"u1": -1, "q1": 2}, Fraction(1, 3))
    operands = [(half, [(0, V("x1")), (1, third)]), (V("x1"), [(0, half)]),
                (third, [(1, V("y1") * 2), (1, half)])]
    got = sums_of_products(operands, 2)
    assert [stored(p) for p in got] == [stored(p) for p in sums_then_reference(operands, 2)]
    assert got[0].terms == {(("x1", 1),): 1}
    assert all(type(c) is int for c in got[0].terms.values())
    assert all(type(c) is Fraction for c in got[1].terms.values())


def test_sums_of_products_overflows_exactly_where_the_products_do():
    rng = random.Random(3602)
    half = ybhecke.poly._LIMIT // 2
    raised = 0

    def near(v):
        low = [-half - 2, -3] if var_parts(v)[0] in ("x", "u") else []
        return rng.choice(low + [0, 2, half - 2, half - 1, half, half + 1, half + 3])

    def poly():
        p = LaurentPoly.zero()
        for _ in range(rng.randint(1, 3)):
            exps = {v: near(v) for v in rng.sample(["x1", "u2", "y1", "q1"], 2)}
            p = p + LaurentPoly.monomial(exps, rng.randint(-3, 3) or 1)
        return p

    for _ in range(300):
        width = rng.randint(1, 3)
        operands = random_operands(rng, width, poly)
        try:
            want = [stored(p) for p in sums_then_reference(operands, width)]
        except ExponentOverflow:
            raised += 1
            with pytest.raises(ExponentOverflow):
                sums_of_products(operands, width)
            continue
        assert [stored(p) for p in sums_of_products(operands, width)] == want, operands
    assert 30 < raised < 270
    # a product out of range raises even where its sum would cancel it
    big = LaurentPoly.variable("x1", half)
    with pytest.raises(ExponentOverflow):
        sums_of_products([(big, [(0, big)]), (-big, [(0, big)])], 1)
    small = LaurentPoly.variable("x1", half - 1)
    assert [str(p) for p in sums_of_products([(big, [(1, small)])], 2)] == [
        "0", f"x1^{2 * half - 1}"]
