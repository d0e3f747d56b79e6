"""Operator families on the polynomial ring: definitions and relations."""

import random

import pytest

from ybhecke.errors import IndexOutOfRange
from ybhecke.hecke import algebra
from ybhecke.operators import (
    FAMILIES,
    all_inverse_words,
    apply_generator,
    apply_inverse_word,
    apply_word,
    check_relations,
    random_probe,
)
from ybhecke.permutations import Permutation, all_permutations
from ybhecke.poly import LaurentPoly, rename_poly
from ybhecke.schubert import specialize_double
from ybhecke.serialize import parse_poly

P = Permutation.from_string
S = parse_poly


def test_divided_difference_of_x1():
    assert apply_generator("partial", 1, S("x1"), 2) == LaurentPoly.one()


def test_isobaric_on_constants():
    one = LaurentPoly.one()
    assert apply_generator("pi", 1, one, 2) == one
    assert apply_generator("pibar", 1, one, 2).is_zero


def test_divided_difference_kills_symmetric():
    f = S("x1*x2 + x1 + x2")
    assert apply_generator("partial", 1, f, 2).is_zero
    assert apply_generator("sigma", 1, f, 2) == f


def test_divided_difference_on_rational_input():
    f = S("1/x1")
    out = apply_generator("partial", 1, f, 2)
    assert out == S("-1/(x1*x2)")


def test_leibniz_rule():
    rng = random.Random(2)
    for _ in range(8):
        p = random_probe(rng, 3)
        q = random_probe(rng, 3)
        for i in (1, 2):
            lhs = apply_generator("partial", i, p * q, 3)
            rhs = apply_generator("partial", i, p, 3) * q + apply_generator(
                "sigma", i, p, 3
            ) * apply_generator("partial", i, q, 3)
            assert lhs == rhs


def test_pi_pibar_annihilation():
    rng = random.Random(4)
    for _ in range(8):
        f = random_probe(rng, 3)
        for i in (1, 2):
            inner = apply_generator("pibar", i, f, 3)
            assert apply_generator("pi", i, inner, 3).is_zero


def test_empty_word_is_identity():
    f = S("x1^2*x2 - 3*x2")
    assert apply_word("partial", (), f, 3) == f


def test_braid_relation_instance():
    f = S("x1^2*x2")
    assert apply_word("partial", (1, 2, 1), f, 3) == apply_word(
        "partial", (2, 1, 2), f, 3
    )


def test_word_independence_for_every_family():
    rng = random.Random(8)
    for mu in all_permutations(4):
        words = set()
        for j in mu.descents():
            words.add(mu.times_simple(j).reduced_word() + (j,))
        words.add(mu.reduced_word())
        f = random_probe(rng, 4)
        for family in ("sigma", "partial", "s", "pi", "pibar", "T"):
            values = [apply_word(family, w, f, 4) for w in words]
            assert all(v == values[0] for v in values[1:])


def test_schubert_style_descent_to_x1_minus_y1():
    # classical divided differences carry the dominant staircase product to
    # the linear double Schubert polynomial
    x_omega = S("(x1-y1)*(x1-y2)*(x2-y1)")
    mu = P("213")
    op_perm = mu.inverse() * P("321")
    out = apply_inverse_word("partial", op_perm, x_omega)
    assert out == S("x1 - y1")


def test_isobaric_descent_to_grothendieck_132():
    g_omega = S("(1-y1/x1)*(1-y1/x2)*(1-y2/x1)")
    mu = P("132")
    op_perm = mu.inverse() * P("321")
    out = apply_inverse_word("pi", op_perm, g_omega)
    assert out == S("1 - y1*y2/(x1*x2)")


def test_perm_action():
    # the substitution action x_i -> x_{mu(i)} is read, at u, from
    # specialize_double: a probe in x alone becomes f(u^mu)
    f = S("x1")
    assert specialize_double(f, P("213")) == S("u2")
    assert specialize_double(S("x1*x2^2"), P("231")) == S("u2*u3^2")
    rng = random.Random(6)
    mu, nu = P("231"), P("312")
    by_nu = {f"x{i}": f"x{nu(i)}" for i in range(1, 4)}
    for _ in range(5):
        g = random_probe(rng, 3)
        # a left action: (mu nu) f = mu (nu f)
        assert specialize_double(g, mu * nu) == specialize_double(rename_poly(g, by_nu), mu)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        apply_generator("partial", 3, S("x1"), 3)
    with pytest.raises(IndexOutOfRange):
        apply_generator("sigma", 0, S("x1"), 3)


@pytest.mark.parametrize("family", ["sigma", "partial", "s", "pi", "pibar"])
def test_relations_hold(family):
    report = check_relations(family, 4, seed=1)
    assert report.passed, report.lines()


def test_relations_T_symbolic():
    report = check_relations("T", 3, seed=2)
    assert report.passed, report.lines()


def test_s_squares_to_identity():
    rng = random.Random(9)
    for _ in range(5):
        f = random_probe(rng, 3)
        for i in (1, 2):
            assert apply_word("s", (i, i), f, 3) == f


def test_inverse_word_recursion_on_ascents():
    # D_{mu s_j} = D_mu o D_j (D_j acts first) on every ascent of S4; the
    # other order, D_j o D_mu, is a different operator
    f = random_probe(random.Random(5), 4)
    ascents = [
        (mu, j)
        for mu in all_permutations(4)
        for j in range(1, 4)
        if mu.times_simple(j).length() > mu.length()
    ]
    assert len(ascents) == 36
    wrong = 0
    for mu, j in ascents:
        longer = apply_inverse_word("partial", mu.times_simple(j), f)
        assert longer == apply_inverse_word(
            "partial", mu, apply_generator("partial", j, f, 4)
        ), (mu, j)
        swapped = apply_generator("partial", j, apply_inverse_word("partial", mu, f), 4)
        wrong += longer != swapped
    assert wrong == 7


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_all_inverse_words_match_apply_inverse_word(family, n):
    probes = [random_probe(random.Random(n), n), S("1/x1 + x2^2 - 3*x1*x3")]
    for f in probes:
        images = all_inverse_words(family, f, n)
        assert list(images) == all_permutations(n)
        for mu, image in images.items():
            assert image == apply_inverse_word(family, mu, f), (family, mu)


@pytest.mark.parametrize("family", FAMILIES)
def test_algebra_reads_the_family_table(family):
    alg = algebra(family, 3)
    assert (alg.a, alg.b) == FAMILIES[family]


def test_check_relations_reads_the_family_table(monkeypatch):
    # pi_i^2 = pi_i; claiming pi_i^2 = 0 breaks every quadratic check and
    # nothing else
    monkeypatch.setitem(FAMILIES, "pi", (0, 0))
    report = check_relations("pi", 3, seed=0)
    assert report.checks == 12
    assert report.failed == 8
    assert all(w.startswith("quadratic(") for w in report.failures)


def test_unknown_family_raises():
    with pytest.raises(ValueError):
        algebra("bogus", 3)
    with pytest.raises(ValueError):
        check_relations("bogus", 3)


@pytest.mark.parametrize("family", ["bogus", "sigma2"])
def test_apply_generator_refuses_an_unknown_family(family):
    with pytest.raises(ValueError, match="unknown operator family"):
        apply_generator(family, 1, parse_poly("x1"), 2)
