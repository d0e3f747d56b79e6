"""Hecke elements, Yang-Baxter bases, the bilinear form, orthogonality."""

import random
from fractions import Fraction

import pytest

from ybhecke.cli import main
from ybhecke.errors import (
    AlgebraMismatch,
    DegenerateSpectrum,
    ExponentOverflow,
    IndexOutOfRange,
    RankMismatch,
    ReservedVariable,
    ZeroSpectral,
)
import ybhecke.hecke
import ybhecke.poly
from ybhecke.hecke import (
    FACTOR_FAMILIES,
    HeckeElement,
    _deltas,
    _from_beta,
    _from_building,
    _omega_row,
    _pair,
    _phi_of_basis,
    _spectrum,
    algebra,
    apply_to_polynomial,
    basis_element,
    delta,
    elementary_factor,
    expand_in_yb,
    factor_coefficient,
    gram_matrix,
    iter_yb_basis,
    orthogonality_violations,
    pairing,
    permuted_spectral,
    phi,
    symbolic_spectral,
    unit,
    verify_orthogonality,
    verify_rothe,
    verify_word_independence,
    verify_ybe,
    word_steps,
    yb_basis,
    yb_element,
    yb_element_rothe,
    yb_product,
)
from ybhecke.operators import apply_word, random_probe
from ybhecke.permutations import Permutation, all_permutations, all_reduced_words
from ybhecke.poly import (
    BETA,
    LaurentPoly,
    RationalFunction,
    as_rf,
    coefficients_in,
    poly_gcd,
    rename_poly,
    rename_rf,
    substitute,
)
from ybhecke.report import MAX_WITNESSES
from ybhecke.serialize import parse_scalar as S

P = Permutation.from_string
R = RationalFunction


def random_element(rng, alg, names=("u1", "u2", "u3")):
    coeffs = {}
    for mu in all_permutations(alg.n):
        if rng.random() < 0.5:
            exps = {v: rng.randint(0, 2) for v in names}
            coeffs[mu] = LaurentPoly.monomial(exps, rng.randint(-5, 5))
    return HeckeElement(alg, coeffs)


# ----------------------------------------------------------------------
# multiplication in the T basis


def test_generator_on_unit():
    alg = algebra("T", 3)
    assert unit(alg).times_generator(1) == basis_element(alg, P("213"))


def test_quadratic_descent_T():
    alg = algebra("T", 2)
    t1 = basis_element(alg, P("21"))
    got = t1.times_generator(1)
    want = t1.scale(S("q1+q2")) + unit(alg).scale(S("-q1*q2"))
    assert got == want


def test_quadratic_descent_nilcoxeter():
    alg = algebra("partial", 2)
    assert basis_element(alg, P("21")).times_generator(1).is_zero


def test_unit_and_associativity():
    rng = random.Random(31)
    alg = algebra("T", 3)
    for _ in range(4):
        h1 = random_element(rng, alg)
        h2 = random_element(rng, alg)
        h3 = random_element(rng, alg)
        assert h1 * unit(alg) == h1
        assert (h1 * h2) * h3 == h1 * (h2 * h3)


def test_subtraction_is_adding_the_negative():
    rng = random.Random(32)
    alg = algebra("T", 3)
    for _ in range(4):
        h1 = random_element(rng, alg)
        h2 = random_element(rng, alg)
        assert (h1 - h2) + h2 == h1 and (h1 - h1).is_zero
        assert h1 - h2 == -(h2 - h1)
    with pytest.raises(AlgebraMismatch):
        unit(alg) - unit(algebra("partial", 3))


def test_two_words_of_omega_agree():
    alg = algebra("T", 3)
    t1 = unit(alg).times_generator(1)
    via_121 = t1.times_generator(2).times_generator(1)
    t2 = unit(alg).times_generator(2)
    via_212 = t2.times_generator(1).times_generator(2)
    assert via_121 == via_212 == basis_element(alg, P("321"))


def test_left_right_generator_consistency():
    rng = random.Random(32)
    alg = algebra("T", 3)
    for _ in range(4):
        h = random_element(rng, alg)
        for j in (1, 2):
            left = h.generator_times(j)
            ref = basis_element(alg, Permutation.simple(3, j)) * h
            assert left == ref


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        unit(algebra("T", 3)) * unit(algebra("partial", 3))
    with pytest.raises(AlgebraMismatch):
        pairing(unit(algebra("T", 3)), unit(algebra("T", 2)))


def test_an_algebra_is_an_immutable_value_with_a_short_repr():
    assert repr(algebra("T", 3)) == "AlgebraSpec('T', n=3)"
    assert algebra("sigma", 4) == algebra("sigma", 4)
    assert algebra("sigma", 4) != algebra("partial", 4)
    alg = algebra("sigma", 4)
    with pytest.raises(AttributeError):
        alg.n = 5
    assert alg.n == 4


# ----------------------------------------------------------------------
# elementary factors


def test_factor_coincident_parameters():
    alg = algebra("partial", 3)
    u = S("u1")
    assert elementary_factor(alg, 1, u, u) == unit(alg)


def test_factor_product_is_scalar():
    # Y_j(u,v) Y_j(v,u) has no T_j component and the displayed scalar value
    alg = algebra("T", 2)
    u, v = S("u1"), S("u2")
    prod = elementary_factor(alg, 1, u, v) * elementary_factor(alg, 1, v, u)
    scalar = 1 - S("(u1/u2 - 1)*(u2/u1 - 1)*q1*q2/(q1+q2)^2")
    assert prod == unit(alg).scale(scalar)


def test_pibar_factor_is_T_specialization():
    algt = algebra("T", 3)
    algp = algebra("pibar", 3)
    u, v = S("u1"), S("u2")
    t_factor = elementary_factor(algt, 1, u, v)
    p_factor = elementary_factor(algp, 1, u, v)
    spec = {"q1": S("-1"), "q2": S("0")}
    for mu, c in t_factor.coeffs.items():
        assert substitute(c, spec) == p_factor.coefficient(mu)


def test_zero_spectral_guard():
    alg = algebra("pibar", 2)
    with pytest.raises(ZeroSpectral):
        elementary_factor(alg, 1, R.zero(), S("u2"))
    with pytest.raises(ZeroSpectral):
        yb_element(alg, P("21"), [R.zero(), S("u2")])
    with pytest.raises(IndexOutOfRange):
        elementary_factor(alg, 2, S("u1"), S("u2"))


# ----------------------------------------------------------------------
# Yang-Baxter elements


def test_a_permutation_of_another_rank_is_refused():
    alg = algebra("partial", 3)
    for mu in (P("2134"), P("21"), P("1243")):
        for build in (yb_element, yb_element_rothe, basis_element):
            with pytest.raises(RankMismatch):
                build(alg, mu)
    for word in ((3,), (0,), (1, 2, 3)):
        with pytest.raises(IndexOutOfRange):
            list(word_steps(3, word))


@pytest.mark.parametrize("family", FACTOR_FAMILIES)
def test_spectrum_gives_the_parameters_the_building_algebra_and_reduce(family):
    # the one place that makes family T's one-parameter algebra
    alg = algebra(family, 3)
    u, build, reduce = _spectrum(alg, None)
    assert u == symbolic_spectral(3) and reduce is False
    if family == "T":
        assert tuple(build) == ("T'", 3, LaurentPoly.one(), -LaurentPoly.variable(BETA))
    else:
        assert build is alg
    assert _spectrum(alg, [S("q1"), S("u2"), S("u3")])[2] is (family == "T")


def test_typed_errors_of_expansion_spectrum_and_generator_index():
    with pytest.raises(DegenerateSpectrum, match=r"^Delta\(u\^\(12\*omega\)\) = 0$"):
        expand_in_yb(unit(algebra("partial", 2)), [1, 1])
    with pytest.raises(RankMismatch, match="^need 3 spectral parameters, got 2$"):
        yb_basis(algebra("partial", 3), [S("u1"), S("u2")])
    with pytest.raises(IndexOutOfRange):
        unit(algebra("sigma", 3)).times_generator(3)


def test_a_scalar_multiple_is_scale_alone():
    alg = algebra("T", 2)
    h = unit(alg) + basis_element(alg, P("21"))
    with pytest.raises(TypeError):
        h * 2
    with pytest.raises(TypeError):
        2 * h
    assert h.scale(2) == h + h


def test_yb_identity():
    alg = algebra("T", 3)
    assert yb_element(alg, P("123")) == unit(alg)


def test_yb_231_display():
    alg = algebra("T", 3)
    got = yb_element(alg, P("231"))
    want = (
        unit(alg)
        * elementary_factor(alg, 1, S("u1"), S("u2"))
        * elementary_factor(alg, 2, S("u1"), S("u3"))
    )
    assert got == want
    assert got.coefficient(P("213")) == S("(u2/u1 - 1)/(q1+q2)")


def test_yb_section5_table():
    # the full n=3 table of factorized Yang-Baxter elements
    alg = algebra("T", 3)
    ys = yb_basis(alg)

    def F(j, a, b):
        return elementary_factor(alg, j, S(f"u{a}"), S(f"u{b}"))

    assert ys[P("213")] == F(1, 1, 2)
    assert ys[P("132")] == F(2, 2, 3)
    assert ys[P("231")] == F(1, 1, 2) * F(2, 1, 3)
    assert ys[P("312")] == F(2, 2, 3) * F(1, 1, 3)
    assert ys[P("321")] == F(1, 1, 2) * F(2, 1, 3) * F(1, 2, 3)
    assert ys[P("321")] == F(2, 2, 3) * F(1, 1, 3) * F(2, 1, 2)


def test_yb_nilcoxeter_omega_coefficient():
    alg = algebra("partial", 3)
    y = yb_element(alg, P("321"))
    assert y.coefficient(P("321")) == S("(u3-u2)*(u3-u1)*(u2-u1)")


def test_yang_baxter_equation_symbolic():
    u, v, w = S("u1"), S("u2"), S("u3")
    for fam in ("sigma", "partial", "pibar", "T"):
        alg = algebra(fam, 3)
        lhs = (
            elementary_factor(alg, 1, u, v)
            * elementary_factor(alg, 2, u, w)
            * elementary_factor(alg, 1, v, w)
        )
        rhs = (
            elementary_factor(alg, 2, v, w)
            * elementary_factor(alg, 1, u, w)
            * elementary_factor(alg, 2, u, v)
        )
        assert lhs == rhs, fam


def test_word_independence_samples():
    alg = algebra("T", 4)
    u = symbolic_spectral(4)
    for mu in (P("4321"), P("3412"), P("2413")):
        ref = yb_element(alg, mu, u)
        for word in all_reduced_words(mu):
            h = unit(alg)
            nu = Permutation.identity(4)
            for j in word:
                h = h * elementary_factor(alg, j, u[nu(j) - 1], u[nu(j + 1) - 1])
                nu = nu.times_simple(j)
            assert h == ref


def test_rothe_equals_recursion_all_families_s4():
    for fam in ("sigma", "partial", "pibar", "T"):
        alg = algebra(fam, 4)
        ys = yb_basis(alg)
        for mu, y in ys.items():
            assert yb_element_rothe(alg, mu) == y, (fam, mu)


def window_order(n):
    return sorted(all_permutations(n), key=lambda mu: mu.window)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FACTOR_FAMILIES)
def test_the_stream_yields_the_basis_in_window_order(family, n):
    # at the symbols and at numbers; yb_basis keeps all_permutations order
    alg = algebra(family, n)
    for u in (None, [2, 3, 5, 7][:n]):
        ys = yb_basis(alg, u)
        stream = list(iter_yb_basis(alg, u))
        assert list(ys) == all_permutations(n)
        assert [mu for mu, _ in stream] == window_order(n)
        for mu, y in stream:
            assert y == ys[mu] and list(y.coeffs) == list(ys[mu].coeffs), (u, mu)


def test_the_stream_checks_its_spectral_parameters_before_the_first_element():
    with pytest.raises(RankMismatch, match="^need 3 spectral parameters, got 2$"):
        iter_yb_basis(algebra("partial", 3), [S("u1"), S("u2")])
    with pytest.raises(ZeroSpectral):
        iter_yb_basis(algebra("pibar", 2), [0, 1])


def test_rothe_check_records_in_the_order_of_all_permutations(monkeypatch):
    # the stream runs in window order, the report in all_permutations order:
    # 1432 comes before 2143 in the first and after it in the second
    real = ybhecke.hecke.yb_element_rothe

    def shifted(alg, mu, u=None):
        y = real(alg, mu, u)
        return y + unit(alg) if mu.length() >= 2 else y

    monkeypatch.setattr(ybhecke.hecke, "yb_element_rothe", shifted)
    report = verify_rothe(algebra("partial", 4))
    want = [f"mu={mu}: rothe product differs" for mu in all_permutations(4) if mu.length() >= 2]
    assert report.failed == len(want) == MAX_WITNESSES
    assert report.failures == want


def test_rothe_equals_recursion_35142():
    alg = algebra("T", 5)
    mu = P("35142")
    assert yb_element_rothe(alg, mu) == yb_element(alg, mu)


# ----------------------------------------------------------------------
# the generic family's one-parameter (beta) form


def factor_products(alg, u, words):
    """Products of the public ``elementary_factor``s along each word, in
    ``alg`` itself; words that share a prefix share its product."""
    memo = {(): unit(alg)}

    def along(word):
        if word not in memo:
            j, a, b = list(word_steps(alg.n, word))[-1]
            memo[word] = along(word[:-1]) * elementary_factor(alg, j, u[a - 1], u[b - 1])
        return memo[word]

    return {word: along(word) for word in words}


@pytest.mark.parametrize(
    "spectral", [None, "2,3,7", "q1,u2,q2+1"], ids=["symbolic", "numeric", "mentions-q"]
)
def test_beta_route_equals_factor_product_on_every_word(spectral):
    ranks = (2, 3, 4) if spectral is None else (len(spectral.split(",")),)
    for n in ranks:
        alg = algebra("T", n)
        u = symbolic_spectral(n) if spectral is None else [S(x) for x in spectral.split(",")]
        for mu in all_permutations(n):
            words = all_reduced_words(mu)
            want = factor_products(alg, u, words)
            for word in words:
                assert yb_product(alg, u, word_steps(n, word)) == want[word], (mu, word)
            assert yb_element(alg, mu, u) == want[mu.reduced_word()], mu


def test_beta_route_at_q1_0_q2_minus1_is_pibar():
    spec = {"q1": S("0"), "q2": S("-1")}
    for n in (3, 4):
        generic = yb_basis(algebra("T", n))
        pibar = yb_basis(algebra("pibar", n))
        for mu, y in generic.items():
            got = {nu: substitute(c, spec) for nu, c in y.coeffs.items()}
            assert {nu: c for nu, c in got.items() if not c.is_zero} == pibar[mu].coeffs, mu


def test_beta_carrier_never_in_a_coefficient():
    alg = algebra("T", 4)
    elements = list(yb_basis(alg).values()) + [yb_element(algebra("T", 5), P("54321"))]
    elements.append(yb_element(alg, P("4321"), [S("q1"), S("u2"), S("q2+1"), S("3")]))
    for y in elements:
        for c in y.coeffs.values():
            # the (q1, q2) form divides by powers of q1+q2
            assert isinstance(c, RationalFunction)
            assert BETA not in c.num.variables() | c.den.variables()


def test_spectral_parameter_mentioning_the_beta_carrier_is_rejected(capsys):
    alg = algebra("T", 3)
    u = [S("u1"), R.variable(BETA) + 1, S("u3")]
    for build in (
        lambda: yb_element(alg, P("321"), u),
        lambda: yb_basis(alg, u),
        lambda: yb_element_rothe(alg, P("321"), u),
        lambda: yb_product(alg, u, word_steps(3, (1, 2, 1))),
        lambda: delta(alg, u),
        lambda: factor_coefficient(alg, u[0], u[1]),
    ):
        with pytest.raises(ReservedVariable):
            build()
    # The text grammar cannot spell the carrier, so the CLI stops at parsing.
    assert main(["yb", "-n", "3", "--family", "T", "321", "--spectral", f"{BETA},u2,u3"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("family", ["pi", "s"])
def test_factor_coefficient_refuses_a_family_without_a_factor(family):
    with pytest.raises(ValueError, match="no elementary Yang-Baxter factor"):
        factor_coefficient(algebra(family, 3), S("u1"), S("u2"))


def from_building_reference(alg, h):
    """The coefficients of _from_building(alg, h) by Horner's rule in
    theta^2: sum_j P_j (q1 q2)^j theta^(2K-2j) over theta^(2K+l(nu))."""
    q1, q2 = LaurentPoly.variable("q1"), LaurentPoly.variable("q2")
    theta = q1 + q2
    out = {}
    for nu, c in h.coeffs.items():
        parts = coefficients_in(c.num, BETA)
        top = max(parts)
        num = parts.get(0, LaurentPoly.zero())
        for j in range(1, top + 1):
            num = num * theta * theta + parts.get(j, LaurentPoly.zero()) * (q1 * q2) ** j
        out[nu] = R(num, c.den * theta ** (2 * top + nu.length()))
    return out


def random_beta_poly(rng, top):
    """sum_j P_j BETA^j, j <= top; q1 and q2 occur inside the P_j."""
    p = LaurentPoly.zero()
    for j in range(top + 1):
        for _ in range(rng.randint(1 if j == top else 0, 3)):
            exps = {v: rng.randint(0, 2) for v in ("q1", "q2", "u1", "u2")}
            exps["u3"] = rng.randint(-1, 1)
            exps[BETA] = j
            p = p + LaurentPoly.monomial(exps, rng.randint(-5, 5) or 1)
    return p


def test_from_building_matches_the_horner_form():
    # Randomized, seed 36; every comparison is exact.
    rng = random.Random(36)
    alg = algebra("T", 3)
    build = _spectrum(alg, None)[1]
    dens = [S(d) for d in ("1", "u1 - u2", "2*y1^2 + 3", "q1 + u2", "-3*u1*y1")]
    seen = set()
    for _ in range(30):
        coeffs = {}
        for nu in all_permutations(3):
            num = random_beta_poly(rng, rng.randint(0, 3))
            if not num.is_zero:
                coeffs[nu] = R(num) / rng.choice(dens)
        h = HeckeElement(build, coeffs)
        got = _from_building(alg, h, False)
        reduced = _from_building(alg, h, True)
        want = from_building_reference(alg, h)
        assert list(got.coeffs) == list(reduced.coeffs) == list(want), coeffs
        for nu, c in got.coeffs.items():
            assert (c.num.terms, c.den.terms) == (want[nu].num.terms, want[nu].den.terms)
            assert str(c) == str(want[nu])
            assert BETA not in c.num.variables() | c.den.variables()
            r = reduced.coeffs[nu]
            assert r == c and len(poly_gcd(r.num, r.den)) == 1  # a monomial
            d = h.coeffs[nu]
            seen.add((max(coefficients_in(d.num, BETA)), d.den.is_one))
    assert seen == {(k, one) for k in range(4) for one in (True, False)}


# ----------------------------------------------------------------------
# the anti-automorphism and the bilinear form


def test_phi_involution_and_antimultiplicativity():
    rng = random.Random(33)
    alg = algebra("T", 3)
    for _ in range(5):
        h1 = random_element(rng, alg)
        h2 = random_element(rng, alg)
        assert phi(phi(h1)) == h1
        assert phi(h1 * h2) == phi(h2) * phi(h1)


def test_phi_of_y231_display():
    alg = algebra("T", 3)
    got = phi(yb_element(alg, P("231")))
    want = (
        unit(alg)
        * elementary_factor(alg, 2, S("u3"), S("u1"))
        * elementary_factor(alg, 1, S("u3"), S("u2"))
    )
    assert got == want


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", FACTOR_FAMILIES)
def test_pair_reads_the_omega_coefficient_of_the_product(family, n):
    # the one kernel of the form against a full product
    rng = random.Random(32)
    alg = algebra(family, n)
    omega = Permutation.longest(n)
    for _ in range(3):
        h = random_element(rng, alg)
        g = random_element(rng, alg)
        assert _pair(g, _omega_row(h)) == (h * g).coefficient(omega)


def test_pairing_of_omega_with_unit():
    alg = algebra("T", 3)
    assert pairing(basis_element(alg, P("321")), unit(alg)) == R.one()


def test_orthogonality_T_n3():
    alg = algebra("T", 3)
    u = symbolic_spectral(3)
    g = gram_matrix(alg, u)
    omega = Permutation.longest(3)
    for (mu, nu), val in g.items():
        if nu == omega * mu:
            assert val == delta(alg, permuted_spectral(u, mu * omega)), (mu, nu)
        else:
            assert val.is_zero, (mu, nu)


@pytest.mark.parametrize("family", ["sigma", "partial", "pibar"])
def test_coefficients_are_laurent_polynomials_at_the_symbols(family):
    # one ring: at u1..un no Yang-Baxter coefficient or pairing divides
    alg = algebra(family, 4)
    for y in yb_basis(alg).values():
        assert all(isinstance(c, LaurentPoly) for c in y.coeffs.values())
    assert all(isinstance(c, LaurentPoly) for c in gram_matrix(alg).values())


def test_gram_agrees_with_direct_pairing():
    # gram_matrix pairs family T in the beta form, pairing in the (q1, q2)
    # form: all 36 pairs agree in their normal forms, string for string
    alg = algebra("T", 3)
    u = symbolic_spectral(3)
    g = gram_matrix(alg, u)
    ys = yb_basis(alg, u)
    assert len(g) == 36
    for (mu, nu), val in g.items():
        val, want = as_rf(val), as_rf(pairing(ys[mu], ys[nu]))
        assert (str(val), val.num.terms, val.den.terms) == (
            str(want), want.num.terms, want.den.terms
        ), (mu, nu)


def test_gram_T_n4_takes_no_gcd(monkeypatch):
    def no_gcd(p, q):
        raise AssertionError(f"poly_gcd({p}, {q})")

    alg = algebra("T", 4)
    monkeypatch.setattr(ybhecke.poly, "poly_gcd", no_gcd)
    g = gram_matrix(alg)
    monkeypatch.undo()  # the check against Delta divides by theta
    assert len(g) == 576
    assert orthogonality_violations(alg, g) == {}


def test_delta_examples():
    assert delta(algebra("T", 1)) == R.one()
    assert delta(algebra("T", 2)) == S("(u2/u1 - 1)/(q1+q2)")
    # derived: <Y_id, Y_omega> read off the omega coefficient directly
    alg = algebra("partial", 3)
    ys = yb_basis(alg)
    got = pairing(ys[P("123")], ys[P("321")])
    u = symbolic_spectral(3)
    assert got == delta(alg, permuted_spectral(u, P("321")))
    assert delta(alg) == S("(u2-u1)*(u3-u1)*(u3-u2)")


def test_descent_identity():
    # for a descent at j: Y_mu (1 + (u-1)/(q1+q2) T_j)
    #   = Y_{mu s_j} (1 - (2-u-1/u) q1 q2/(q1+q2)^2), u = u_{mu(j+1)}/u_{mu(j)}
    alg = algebra("T", 3)
    u = symbolic_spectral(3)
    ys = yb_basis(alg, u)
    for mu in all_permutations(3):
        for j in mu.descents():
            ratio = u[mu(j + 1) - 1] / u[mu(j) - 1]
            lhs = ys[mu] * elementary_factor(alg, j, R.one(), ratio)
            scalar = 1 - (2 - ratio - 1 / ratio) * S("q1*q2") / S("(q1+q2)^2")
            assert lhs == ys[mu.times_simple(j)].scale(scalar), (mu, j)


# ----------------------------------------------------------------------
# expansion in the Yang-Baxter basis


def test_expand_basis_indicator():
    alg = algebra("T", 3)
    ys = yb_basis(alg)
    for nu in all_permutations(3):
        c = expand_in_yb(ys[nu])
        assert set(c) == {nu} and c[nu] == R.one()


def test_expand_t213_display():
    alg = algebra("T", 3)
    c = expand_in_yb(basis_element(alg, P("213")))
    D = delta(alg)
    A = S("(u3/u2 - 1)*(u3/u1 - 1)/(q1+q2)^2")
    assert set(c) == {P("213"), P("123")}
    assert c[P("213")] == A / D
    assert c[P("123")] == -A / D


def test_expand_t321_display():
    alg = algebra("T", 3)
    c = expand_in_yb(basis_element(alg, P("321")))
    D = delta(alg)
    assert c[P("321")] == 1 / D
    assert c[P("231")] == -1 / D
    assert c[P("312")] == -1 / D
    assert c[P("213")] == 1 / D
    assert c[P("132")] == 1 / D
    # the sign of the identity coefficient is forced by the vanishing of the
    # T_id component of Delta * T_321 (the printed table flips it)
    inner = S("1 - (1 + u3/u1 - u3/u2 - u2/u1)/((1+q1/q2)*(1+q2/q1))")
    assert c[P("123")] == -inner / D


def test_expand_at_numeric_spectral_parameters():
    # phi reverses u; at numbers that is Y built at the reversed tuple
    u = [R.constant(c) for c in (2, 3, 7)]
    for fam in ("partial", "sigma", "pibar"):
        alg = algebra(fam, 3)
        assert expand_in_yb(yb_element(alg, P("231"), u), u) == {P("231"): R.one()}, fam
    # Y_213 = 1 + (u2 - u1) T_213, so T_213 = (Y_213 - Y_123)/(u2 - u1)
    u = [R.constant(c) for c in (2, 5, 7)]
    third = R.constant(Fraction(1, 3))
    got = expand_in_yb(basis_element(algebra("partial", 3), P("213")), u)
    assert got == {P("213"): third, P("123"): -third}


@pytest.mark.parametrize("family", ["partial", "T", "sigma", "pibar"])
def test_pairing_at_numeric_spectral_parameters(family):
    # phi reverses u, so away from the symbols pairing needs u itself; the
    # symbolic reversal gives 20 for <Y_123, Y_321> in partial, the law -20
    alg = algebra(family, 3)
    u = [R.constant(c) for c in (2, 3, 7)]
    ys = yb_basis(alg, u)
    g = gram_matrix(alg, u)
    assert len(g) == 36
    for (mu, nu), val in g.items():
        assert pairing(ys[mu], ys[nu], u=u) == val, (mu, nu)
    if family == "partial":
        assert g[(P("123"), P("321"))] == R.constant(-20)
        assert pairing(ys[P("123")], ys[P("321")]) == R.constant(20)


def test_orthogonality_violations():
    for fam, u in (("T", None), ("partial", [R.constant(c) for c in (2, 3, 7)])):
        alg = algebra(fam, 3)
        g = gram_matrix(alg, u)
        assert orthogonality_violations(alg, g, u) == {}
        # an off-diagonal entry that is not 0 and a diagonal one off by a sign
        g[(P("123"), P("123"))] = R.one()
        g[(P("213"), P("231"))] = -g[(P("213"), P("231"))]
        bad = orthogonality_violations(alg, g, u)
        assert list(bad) == [(P("123"), P("123")), (P("213"), P("231"))], fam
        assert bad[(P("123"), P("123"))] == R.one()
    # at n = 4, where every Delta comes from the table of factor coefficients
    ident, omega = P("1234"), P("4321")
    for fam in ("sigma", "pibar"):
        alg = algebra(fam, 4)
        g = gram_matrix(alg)
        assert orthogonality_violations(alg, g) == {}
        g[(ident, ident)] = LaurentPoly.one()
        g[(ident, omega)] = g[(ident, omega)] + 1
        bad = orthogonality_violations(alg, g)
        assert list(bad) == [(ident, ident), (ident, omega)], fam
        assert bad[(ident, ident)] == 1


def test_expand_resubstitution_random():
    rng = random.Random(35)
    alg = algebra("T", 3)
    ys = yb_basis(alg)
    for _ in range(3):
        h = random_element(rng, alg)
        coeffs = expand_in_yb(h)
        total = HeckeElement(alg, {})
        for mu, c in coeffs.items():
            total = total + ys[mu].scale(c)
        assert total == h


# ----------------------------------------------------------------------
# faithfulness: abstract elements act like operator compositions


@pytest.mark.parametrize("family", ["sigma", "partial", "pibar", "T"])
def test_operator_realization_is_right_action(family):
    rng = random.Random(36)
    alg = algebra(family, 3)
    for _ in range(4):
        h1 = random_element(rng, alg)
        h2 = random_element(rng, alg)
        f = random_probe(rng, 3)
        lhs = apply_to_polynomial(h1 * h2, f)
        rhs = apply_to_polynomial(h2, apply_to_polynomial(h1, f))
        assert lhs == rhs


def test_operator_realization_respects_words():
    rng = random.Random(37)
    alg = algebra("T", 3)
    for mu in all_permutations(3):
        f = random_probe(rng, 3)
        via_element = apply_to_polynomial(basis_element(alg, mu), f)
        via_word = apply_word("T", mu.reduced_word(), f, 3)
        assert via_element == via_word


@pytest.mark.parametrize("family, n", [("sigma", 4), ("partial", 4), ("pibar", 4), ("T", 3)])
def test_phi_of_basis_is_phi_at_the_symbols(family, n):
    # built at the reversed symbols, phi(Y_nu) has the very terms that
    # renaming the symbols of Y_nu gives
    alg = algebra(family, n)
    u = symbolic_spectral(n)

    def terms(h):
        return {
            mu: (dict(as_rf(c).num.terms), dict(as_rf(c).den.terms))
            for mu, c in h.coeffs.items()
        }

    got = _phi_of_basis(alg, u)
    want = {nu: phi(y) for nu, y in yb_basis(alg, u).items()}
    assert list(got) == list(want)
    for nu, h in want.items():
        assert terms(got[nu]) == terms(h), nu


# ----------------------------------------------------------------------
# quotients of the generic family that are born normal


def assert_born_normal(f):
    """``f`` has the very terms that normalising its pair gives."""
    f = as_rf(f)
    want = RationalFunction(f.num, f.den)
    assert (f.num.terms, f.den.terms) == (want.num.terms, want.den.terms), f


def test_generic_coefficients_at_the_symbols_are_born_normal():
    for n in (3, 4):
        alg = algebra("T", n)
        for y in yb_basis(alg).values():
            for c in y.coeffs.values():
                assert_born_normal(c)
        u = symbolic_spectral(n)
        for mu in all_permutations(n):
            assert_born_normal(delta(alg, permuted_spectral(u, mu)))
    g = gram_matrix(algebra("T", 3))
    zeros = [val for val in g.values() if not val]
    assert zeros and len(zeros) < len(g)
    for val in g.values():
        assert_born_normal(val)
    for val in zeros:
        assert (val.num.terms, val.den.terms) == ({}, {(): 1})


def test_delta_at_coincident_parameters_is_zero_over_one():
    d = delta(algebra("T", 3), [S("u1"), S("u1"), S("u3")])
    assert (d.num.terms, d.den.terms) == ({}, {(): 1})


SPECTRAL_VALUES = ["u1", "u2", "-2*u1", "u1^2*u2^-1", "1/u2", "x1", "3", "1+u1", "u1+u2",
                   "q1", "q1*u2", "(q1+q2)*u2", "(1+q1+q2)*u1", "y1", "u2/(1+u1)"]


@pytest.mark.parametrize("family", ["pibar", "T", "T'"])
def test_factor_coefficients_match_rational_arithmetic(family):
    # the coefficients are the quotients RationalFunction arithmetic gives,
    # term for term, and a LaurentPoly exactly when they are Laurent polynomials
    alg = _spectrum(algebra("T", 2), None)[1] if family == "T'" else algebra(family, 2)
    theta = S("q1+q2")
    for a in map(S, SPECTRAL_VALUES):
        for b in map(S, SPECTRAL_VALUES):
            ratio = as_rf(b) / as_rf(a)
            want = {"pibar": 1 - ratio, "T": (ratio - 1) / theta, "T'": ratio - 1}[family]
            got = factor_coefficient(alg, a, b)
            assert isinstance(got, LaurentPoly) == want.is_polynomial, (a, b)
            got = as_rf(got)
            assert (str(got), got.num.terms, got.den.terms) == (
                str(want), want.num.terms, want.den.terms
            ), (a, b)


@pytest.mark.parametrize("family", ["pibar", "T", "sigma", "partial"])
def test_factors_and_delta_at_the_symbols_take_no_rational_arithmetic(family, monkeypatch):
    def refuse(*args):
        raise AssertionError("RationalFunction arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(RationalFunction, name, refuse)
    alg = algebra(family, 4)
    assert len(yb_basis(alg)) == 24
    assert yb_element(algebra(family, 5), P("54321"))
    if family == "T":
        assert delta(alg)


def ring_and_terms(c):
    f = as_rf(c)
    return type(c), f.num.terms, f.den.terms


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", FACTOR_FAMILIES)
def test_the_symbols_in_either_ring_give_the_default(family, n):
    # the symbols are LaurentPolys, and given as LaurentPolys or as
    # RationalFunctions they build the default's values in the default's rings
    alg = algebra(family, n)

    def built(u):
        return (
            {mu: {nu: ring_and_terms(c) for nu, c in y.coeffs.items()}
             for mu, y in yb_basis(alg, u).items()},
            {pair: ring_and_terms(c) for pair, c in gram_matrix(alg, u).items()},
            ring_and_terms(delta(alg, u)),
        )

    symbols = symbolic_spectral(n)
    assert all(isinstance(x, LaurentPoly) for x in symbols)
    want = built(None)
    assert built(symbols) == want
    assert built([as_rf(x) for x in symbols]) == want


def test_orthogonality_violations_T_n4_takes_no_gcd(monkeypatch):
    def no_gcd(p, q):
        raise AssertionError(f"poly_gcd({p}, {q})")

    alg = algebra("T", 4)
    g = gram_matrix(alg)
    monkeypatch.setattr(ybhecke.poly, "poly_gcd", no_gcd)
    assert orthogonality_violations(alg, g) == {}


def test_generic_coefficients_at_parameters_in_q_are_reduced():
    # u2/u1 - 1 = q1+q2: converted without the gcd, the coefficient of T_213
    # in Y_213 would be (q1+q2)/(q1+q2); the returned (q1, q2) form is 1
    def reduced(c):
        want = c.simplify()
        return (c.num.terms, c.den.terms) == (want.num.terms, want.den.terms)

    alg = algebra("T", 3)
    u = [S("u1"), S("(1+q1+q2)*u1"), S("u3")]
    built = yb_basis(_spectrum(alg, None)[1], u)
    bare = [_from_building(alg, h, False) for h in built.values()]
    assert not all(reduced(c) for y in bare for c in y.coeffs.values())
    ys = yb_basis(alg, u)
    for y in ys.values():
        assert all(map(reduced, y.coeffs.values())), y
    assert ys[P("213")].coefficient(P("213")) == 1
    d = delta(algebra("T", 2), u[:2])
    assert (d.num.terms, d.den.terms) == ({(): 1}, {(): 1})


# ----------------------------------------------------------------------
# the closed omega-row of sigma and partial, and delta in one ring


def multiterm_element(rng, alg):
    """A random element whose coefficients have up to three terms in u1..un,
    with negative exponents and Fraction coefficients."""
    names = [f"u{i}" for i in range(1, alg.n + 1)]
    coeffs = {}
    for mu in all_permutations(alg.n):
        if rng.random() < 0.4:
            c = LaurentPoly.zero()
            for _ in range(rng.randint(1, 3)):
                exps = {v: rng.randint(-2, 2) for v in rng.sample(names, 2)}
                scalar = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3)])
                c = c + LaurentPoly.monomial(exps, scalar)
            coeffs[mu] = c
    return HeckeElement(alg, coeffs)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("family", FACTOR_FAMILIES)
def test_closed_omega_row_matches_the_products(family, n):
    # the row against [T_omega](h * T_kappa) multiplied out: for sigma and
    # partial it is read without a product, row[kappa] = h(omega kappa^-1),
    # for pibar and T it is built along the weak-order walk
    rng = random.Random(2500 + n)
    alg = algebra(family, n)
    omega = Permutation.longest(n)
    for _ in range(2 if n < 5 else 1):
        h = multiterm_element(rng, alg)
        want = {}
        for kappa in all_permutations(n):
            c = (h * basis_element(alg, kappa)).coefficient(omega)
            if c:
                want[kappa] = c
        got = _omega_row(h)
        assert set(got) == set(want)
        for kappa, c in want.items():
            assert got[kappa]._terms == c._terms, kappa


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", ["sigma", "partial", "pibar", "T"])
def test_delta_keeps_its_terms_in_one_ring(family, n):
    # the product of the factor coefficients, as RationalFunction arithmetic
    # multiplies them, at the symbols, at numbers, at 1 + u1, at a quotient
    # and at q-bearing parameters, the last where family T's theta cancels
    alg = algebra(family, n)
    tuples = [
        symbolic_spectral(n),
        [S(t) for t in ("2", "3", "7", "11")[:n]],
        [S("1+u1")] + symbolic_spectral(n)[1:],
        [S("(1+q1+q2)*u1")] + symbolic_spectral(n)[1:],
        [S("u2/(1+u1)")] + symbolic_spectral(n)[1:],
        [S("1"), S("1+q1+q2")] + symbolic_spectral(n)[2:],
    ]
    for u in tuples:
        want = R.one()
        for i in range(n):
            for j in range(i + 1, n):
                want = want * factor_coefficient(alg, u[i], u[j])
        got = delta(alg, u)
        assert isinstance(got, RationalFunction)
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), u


def test_ybe_check_of_family_T_takes_no_gcd(monkeypatch):
    def no_gcd(p, q):
        raise AssertionError(f"poly_gcd({p}, {q})")

    monkeypatch.setattr(ybhecke.poly, "poly_gcd", no_gcd)
    report = verify_ybe(algebra("T", 3))
    assert report.passed and report.checks == 1


def test_rothe_check_of_family_T_stays_in_the_building_algebra(monkeypatch):
    def no_conversion(*args):
        raise AssertionError("verify_rothe left the building algebra")

    monkeypatch.setattr(ybhecke.hecke, "_from_beta", no_conversion)
    report = verify_rothe(algebra("T", 3))
    assert report.passed and report.checks == 6


@pytest.mark.parametrize("family", FACTOR_FAMILIES)
@pytest.mark.parametrize(
    "driver, name, checks",
    [
        (verify_ybe, "ybe[{}]", 1),
        (verify_word_independence, "word-independence[{}, n=3]", 6),
        (verify_rothe, "rothe[{}, n=3]", 6),
        (verify_orthogonality, "orthogonality[{}, n=3]", 36),
    ],
)
def test_basis_drivers_pass_at_n3(driver, name, checks, family):
    # the counts that `verify <suite> -n 3` prints for each family
    report = driver(algebra(family, 3))
    assert report.lines() == [f"{name.format(family)}: PASS ({checks} checks)"]


# ----------------------------------------------------------------------
# spectral parameters given as numbers, gram_matrix against the per-pair
# route, and the table of Delta


def exact(c):
    """A coefficient's ring and stored terms, each coefficient with its type."""
    if isinstance(c, LaurentPoly):
        return "LaurentPoly", {m: (x, type(x)) for m, x in c._terms.items()}
    return "RationalFunction", exact(c.num), exact(c.den)


def exact_element(h):
    return {mu: exact(c) for mu, c in h.coeffs.items()}


@pytest.mark.parametrize("family", FACTOR_FAMILIES)
def test_spectral_parameters_may_be_ints_and_fractions(family):
    alg = algebra(family, 3)
    for numbers in ([2, 3, 5], [2, Fraction(1, 2), 5]):
        constants = [LaurentPoly.constant(c) for c in numbers]
        got, want = yb_basis(alg, numbers), yb_basis(alg, constants)
        assert {mu: exact_element(y) for mu, y in got.items()} == {
            mu: exact_element(y) for mu, y in want.items()}
        got, want = gram_matrix(alg, numbers), gram_matrix(alg, constants)
        assert list(got) == list(want)
        assert {k: exact(c) for k, c in got.items()} == {k: exact(c) for k, c in want.items()}
        assert exact(delta(alg, numbers)) == exact(delta(alg, constants))
    for bad in (2.5, "2"):
        for build in (yb_basis, gram_matrix, delta):
            with pytest.raises(TypeError, match="not an int or a Fraction"):
                build(alg, [bad, 3, 5])


def gram_per_pair(alg, u):
    """gram_matrix entry by entry: each pairing through _pair on its own."""
    u, build, reduce = _spectrum(alg, u)
    ys, phis = yb_basis(build, u), _phi_of_basis(build, u)
    rows = {mu: _omega_row(y) for mu, y in ys.items()}
    length = Permutation.longest(alg.n).length()
    out = {}
    for nu, g in phis.items():
        for mu in ys:
            c = _pair(g, rows[mu])
            out[mu, nu] = c if build is alg else _from_beta(c, length, reduce)
    return out


SPECTRA = {
    # u1,u2,u3 is the symbols, where gram_matrix mirrors half the matrix;
    # u3,u2,u1 is not, so every entry is paired on its own
    3: [None, [2, 3, 5], [S("1+u1"), S("u2"), S("u3")],
        [S("u1"), S("u2"), S("u3")], [S("u3"), S("u2"), S("u1")]],
    # 1+u1 first and numbers after it: the rational pibar matrix at the
    # symbols u2..u4 takes seconds
    4: [None, [2, 3, 5, 7], [S("1+u1"), 2, 3, 5]],
}


@pytest.mark.parametrize(
    "family, n, u",
    [(f, 3, u) for f in FACTOR_FAMILIES for u in SPECTRA[3]]
    + [(f, 4, u) for f in ("sigma", "partial", "pibar") for u in SPECTRA[4]]
    + [("partial", 3, [S("u1^5000"), S("u2"), S("u3")])],
    ids=str,
)
def test_gram_matrix_equals_the_per_pair_route(family, n, u):
    # both routes give every entry in its ring and terms, in nu-major
    # order; u1^5000 takes the kernel's out-of-range products
    alg = algebra(family, n)
    got, want = gram_matrix(alg, u), gram_per_pair(alg, u)
    assert list(got) == list(want)
    for key, c in want.items():
        assert type(got[key]) is type(c) and exact(got[key]) == exact(c), key


@pytest.mark.parametrize(
    "family, n",
    [(f, 3) for f in FACTOR_FAMILIES] + [(f, 4) for f in ("sigma", "partial", "pibar")],
)
def test_the_form_at_the_symbols_is_rho_symmetric(family, n):
    # <Y_nu, Y_mu> = rho(<Y_mu, Y_nu>), rho renaming u_i to u_{n+1-i}, in
    # ring and terms, read off the per-pair route, which pairs every entry
    rev = {f"u{i}": f"u{n + 1 - i}" for i in range(1, n + 1)}
    g = gram_per_pair(algebra(family, n), None)
    for (mu, nu), c in g.items():
        rho = rename_poly(c, rev) if isinstance(c, LaurentPoly) else rename_rf(c, rev)
        assert exact(g[nu, mu]) == exact(rho), (mu, nu)


@pytest.mark.parametrize(
    "family, n",
    [(f, 3) for f in FACTOR_FAMILIES] + [(f, 4) for f in ("sigma", "partial", "pibar")],
)
def test_the_symbols_take_the_accumulated_route_alone(family, n, monkeypatch):
    # the case verify orthogonality runs: no entry there is paired by _pair,
    # whether the symbols are the default or given as a tuple
    alg = algebra(family, n)
    want = gram_per_pair(alg, None)

    def no_pair(g, row):
        raise AssertionError("an entry at the symbols was paired by _pair")

    monkeypatch.setattr(ybhecke.hecke, "_pair", no_pair)
    for u in (None, symbolic_spectral(n)):
        got = gram_matrix(alg, u)
        assert list(got) == list(want)
        assert {k: exact(c) for k, c in got.items()} == {k: exact(c) for k, c in want.items()}


def corrupted(yb_basis, mu):
    """yb_basis with T_id added to Y_mu, at every u."""
    def build(alg, u=None):
        ys = yb_basis(alg, u)
        ys[mu] = ys[mu] + unit(alg)
        return ys
    return build


@pytest.mark.parametrize("family", ["sigma", "partial", "pibar"])
def test_a_corrupted_basis_element_breaks_orthogonality_by_both_routes(family, monkeypatch):
    # Y_213 + 1 pairs with Y_321 to a nonzero value on both sides, one entry
    # accumulated and its mirror renamed; the per-pair route pairs both
    alg = algebra(family, 3)
    build = corrupted(yb_basis, P("213"))
    monkeypatch.setattr(ybhecke.hecke, "yb_basis", build)
    monkeypatch.setitem(globals(), "yb_basis", build)
    assert not verify_orthogonality(alg).passed
    got = orthogonality_violations(alg, gram_matrix(alg))
    want = orthogonality_violations(alg, gram_per_pair(alg, None))
    assert list(got) == list(want) == [(P("321"), P("213")), (P("213"), P("321"))]
    assert {k: exact(c) for k, c in got.items()} == {k: exact(c) for k, c in want.items()}


@pytest.mark.parametrize(
    "family, u",
    [("sigma", "u1^5500,u2,u3"), ("partial", "u1^6000,u2,u3"), ("sigma", "u1^4500,u2,u3,u4"),
     ("sigma", "u1^5000,u2^6000,u3"), ("sigma", "u1^2000,u2^6000,u3^-5000")],
)
def test_gram_matrix_overflows_where_the_per_pair_route_does(family, u):
    # away from the symbols every entry is paired on its own, row by row,
    # so the error names the same monomial as the per-pair route
    u = [S(x) for x in u.split(",")]
    alg = algebra(family, len(u))
    with pytest.raises(ExponentOverflow) as per_pair:
        gram_per_pair_row_major(alg, u)
    with pytest.raises(ExponentOverflow) as got:
        gram_matrix(alg, u)
    assert str(got.value) == str(per_pair.value)


def gram_per_pair_row_major(alg, u):
    """The pairings in the order gram_matrix takes them: row by row."""
    u = _spectrum(alg, u)[0]
    ys, phis = yb_basis(alg, u), _phi_of_basis(alg, u)
    return [_pair(g, _omega_row(y)) for y in ys.values() for g in phis.values()]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", FACTOR_FAMILIES)
def test_the_delta_table_gives_delta_at_every_permuted_tuple(family, n):
    alg = algebra(family, n)
    for u in (symbolic_spectral(n), [2, 3, 5, 7][:n]):
        delta_at = _deltas(alg, *_spectrum(alg, u))
        for pi in all_permutations(n):
            want = delta(alg, permuted_spectral(u, pi))
            assert exact(delta_at(pi)) == exact(want), (u, pi)
