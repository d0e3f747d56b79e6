"""Polynomial tables and the transition/verification drivers."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from ybhecke import hecke, schubert
from ybhecke.errors import RankOutOfRange, ShapeInvalid
from ybhecke.hecke import (
    algebra,
    elementary_factor,
    symbolic_spectral,
    unit,
    word_steps,
    yb_basis,
)
from ybhecke.operators import all_inverse_words, apply_generator, random_probe
from ybhecke.permutations import Permutation, all_permutations
from ybhecke.poly import (
    LaurentPoly,
    RationalFunction,
    as_rf,
    coefficients_in,
    lowest_homogeneous_component,
    rename_poly,
    substitute_poly,
)
from ybhecke.report import MAX_WITNESSES, CheckReport
from ybhecke.schubert import (
    grothendieck_table,
    schubert_table,
    specialize_double,
    verify_appendix_factorizations,
    verify_cohomology_basis,
    verify_grothendieck_transition,
    verify_groth_to_schubert_degeneration,
    verify_newton_interpolation,
    verify_normal_ordering,
    verify_schubert_transition,
    verify_yang_leading_terms,
    yang_coefficients,
)
from ybhecke.serialize import parse_poly, parse_scalar

P = Permutation.from_string

# the classical n=4 table of double Schubert polynomials
TOP4 = "(x1-y1)*(x1-y2)*(x1-y3)*(x2-y1)*(x2-y2)*(x3-y1)"
SCHUBERT4 = {
    "4321": TOP4,
    "3421": f"({TOP4})/(x1-y3)",
    "4231": f"({TOP4})/(x2-y2)",
    "4312": f"({TOP4})/(x3-y1)",
    "2431": "(x1-y1)*(x2-y1)*(x3-y1)*(x1+x2-y2-y3)",
    "3241": f"({TOP4})/((x1-y3)*(x2-y2))",
    "3412": f"({TOP4})/((x1-y3)*(x3-y1))",
    "4132": "(x1-y1)*(x1-y2)*(x1-y3)*(x2+x3-y1-y2)",
    "4213": f"({TOP4})/((x2-y2)*(x3-y1))",
    "2341": "(x1-y1)*(x2-y1)*(x3-y1)",
    "1432": (
        "x1^2*x2+x1^2*x3+x1*x2^2+x1*x2*x3+x2^2*x3"
        "-(x1^2+x1*x2+x2^2)*(y1+y2)-(x1*x2+x1*x3+x2*x3)*(y1+y2+y3)"
        "+(x1+x2)*(y1^2+y1*y2+y2^2)+(x1+x2+x3)*(y1*y2+y1*y3+y2*y3)"
        "-(y1^2*y2+y1^2*y3+y1*y2^2+y1*y2*y3+y2^2*y3)"
    ),
    "2413": "(x1-y1)*(x2-y1)*(x1+x2-y2-y3)",
    "3142": "(x1-y1)*(x1-y2)*(x2+x3-y1-y2)",
    "3214": "(x1-y1)*(x1-y2)*(x2-y1)",
    "4123": "(x1-y1)*(x1-y2)*(x1-y3)",
    "1342": "x1*x2+x1*x3+x2*x3-(y1+y2)*(x1+x2+x3)+y1^2+y1*y2+y2^2",
    "1423": "x1^2+x1*x2+x2^2-(x1+x2)*(y1+y2+y3)+y1*y2+y1*y3+y2*y3",
    "2143": "(x1-y1)*(x1+x2+x3-y1-y2-y3)",
    "2314": "(x1-y1)*(x2-y1)",
    "3124": "(x1-y1)*(x1-y2)",
    "1243": "x1+x2+x3-y1-y2-y3",
    "1324": "x1+x2-y1-y2",
    "2134": "x1-y1",
    "1234": "1",
}

GROTHENDIECK3 = {
    "321": "(1-y1/x1)*(1-y1/x2)*(1-y2/x1)",
    "231": "(1-y1/x1)*(1-y1/x2)",
    "312": "(1-y1/x1)*(1-y2/x1)",
    "213": "1-y1/x1",
    "132": "1-y1*y2/(x1*x2)",
    "123": "1",
}


def test_schubert_table_n4_matches_classical_list():
    table = schubert_table(4)
    assert len(table) == 24
    for window, text in SCHUBERT4.items():
        assert table[P(window)] == parse_poly(text), window


def test_grothendieck_table_n3_matches_classical_list():
    table = grothendieck_table(3)
    assert len(table) == 6
    for window, text in GROTHENDIECK3.items():
        assert table[P(window)] == parse_poly(text), window


def test_schubert_identity_is_one():
    for n in (1, 2, 3):
        assert schubert_table(n)[Permutation.identity(n)] == parse_poly("1")


def test_schubert_homogeneous_of_length_degree():
    table = schubert_table(4)
    for mu, p in table.items():
        if mu.length():
            vars_ = p.variables()
            low = lowest_homogeneous_component(p, vars_)
            assert low == p  # homogeneous
            assert max(sum(e for _, e in m) for m in p.terms) == mu.length()


def test_descent_recursion_all_covers():
    for n in (2, 3, 4):
        xt = schubert_table(n)
        gt = grothendieck_table(n)
        for mu in all_permutations(n):
            for j in mu.descents():
                nu = mu.times_simple(j)
                dx = apply_generator("partial", j, xt[mu], n)
                assert dx == xt[nu], (mu, j)
                dg = apply_generator("pi", j, gt[mu], n)
                assert dg == gt[nu], (mu, j)


def test_schubert_stability():
    small = schubert_table(3)
    big = schubert_table(4)
    for mu in all_permutations(3):
        extended = Permutation(tuple(mu.window) + (4,))
        assert small[mu] == big[extended], mu


@pytest.mark.parametrize("table", [schubert_table, grothendieck_table])
def test_table_rank_guard(table):
    with pytest.raises(RankOutOfRange):
        table(7)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("table", [schubert_table, grothendieck_table])
def test_tables_take_the_rank_guard_of_all_permutations(table, n):
    with pytest.raises(RankOutOfRange, match=f"^rank {n} outside 1..6$"):
        table(n)


def test_a_table_refuses_its_rank_before_building_the_dominant_entry():
    def factor(i, j):
        raise AssertionError(f"factor({i}, {j}) built at n=7")

    with pytest.raises(RankOutOfRange):
        schubert._descend(7, factor, "partial")


def test_specialize_double_examples():
    t3 = schubert_table(3)
    # X_213 = x1 - y1 under mu = 213: x1 -> u2, y1 -> u1
    assert specialize_double(t3[P("213")], P("213")) == parse_scalar("u2 - u1")
    # X_nu(u^id, u) is the indicator of the identity
    for nu in all_permutations(3):
        got = specialize_double(t3[nu], P("123"))
        assert got.is_zero if nu.length() else got == RationalFunction.one()


# polynomials of the specializations' corner cases, by rank
SPECIALIZATION_EDGE_CASES = {
    4: [
        parse_poly("x1^300*x2^-300*y3^300 - 7*x3^-300*y1^2 + x4^-1*y4^299"),
        parse_poly("1/2*x1*y2 - 3/2*x2^-1 + 1/3*y1"),
        # images cancel: at the identity x1*y2 and x2*y1 both give u1*u2
        parse_poly("x1*y2 - x2*y1 + x1 - y1 + x1^-1*y1 - x2^-1*y2"),
        # exponents past 2^13, with the same cancellation
        parse_poly("x1^9000*y2 - x3^-9000*y4^9000 + x1*y2 - x2*y1"),
        LaurentPoly.zero(),
        LaurentPoly.one(),
    ],
    # q1, u3, x6 and y6 pass through; u3 merges with the images
    5: [
        parse_poly("q1*x1*u3 + x6^2*y6*y1 - u3^-1*x3 + u6*x5^-2 - y3*u2 + y2*u3"),
        parse_poly("1/2*q1^2*x6^-1 - 1/2*u3*y6"),
    ],
}


@pytest.mark.parametrize("table", [schubert_table, grothendieck_table])
@pytest.mark.parametrize("moved", ["x", "y"])
def test_specialize_by_renaming_matches_substitution(table, moved):
    # the renaming against substituting the symbols u1..un one map at a
    # time (Grothendieck entries carry negative x exponents); "x" is
    # specialize_double's orientation p(u^mu, u), "y" the mirror p(u, u^mu)
    # of the Grothendieck transition.  Integral values are stored as ints.
    specialize = {"x": specialize_double, "y": schubert._specialize_swapped}[moved]
    fixed = "y" if moved == "x" else "x"
    cases = [(4, p) for p in table(4).values()]
    cases += [(n, p) for n, polys in SPECIALIZATION_EDGE_CASES.items() for p in polys]
    for n, p in cases:
        u = symbolic_spectral(n)
        for mu in all_permutations(n):
            images = {f"{moved}{i}": u[mu(i) - 1] for i in range(1, n + 1)}
            images.update({f"{fixed}{j}": u[j - 1] for j in range(1, n + 1)})
            got = specialize(p, mu)
            assert got == substitute_poly(p, images), (mu, p)
            for c in got.terms.values():
                assert type(c) is (int if c.denominator == 1 else Fraction), (mu, p)


def test_newton_and_normal_ordering_rename_only_the_x_only_probes(monkeypatch):
    # the coefficients are read in u as they come, without a rename; only
    # the probes, and their divided differences, which hold x alone, are
    # renamed
    def x_only(p, varmap):
        assert not any(v[0] in "yu" for v in p.variables()), p
        return rename_poly(p, varmap)

    monkeypatch.setattr(schubert, "rename_poly", x_only)
    for verify in (verify_newton_interpolation, verify_normal_ordering):
        report = verify(3, seed=1)
        assert report.passed and report.checks == 60


def test_a_new_report_has_no_checks_and_no_seed():
    report = CheckReport(name="x")
    assert (report.checks, report.failed, report.failures, report.seed) == (0, 0, [], None)
    assert report.passed and report.lines() == ["x: PASS (0 checks)"]


def test_lazy_witness_called_only_for_kept_failures():
    calls = []

    def witness():
        calls.append(1)
        return "failed"

    report = CheckReport(name="lazy")
    for _ in range(5):
        report.record(True, witness)
    assert calls == [] and report.passed and report.checks == 5
    for _ in range(MAX_WITNESSES + 5):
        report.record(False, witness)
    assert MAX_WITNESSES == 20
    assert len(calls) == MAX_WITNESSES and report.failures == ["failed"] * MAX_WITNESSES
    assert report.checks == MAX_WITNESSES + 10 and not report.passed


def test_failure_without_room_for_a_witness_still_fails():
    report = CheckReport(name="x", seed=3)
    report.record(True, "unused")
    kept = [f"w{k}" for k in range(MAX_WITNESSES)]
    for w in kept:
        report.record(False, w)
    assert report.failed == MAX_WITNESSES and report.failures == kept
    report.record(False, "no room")
    assert not report.passed and report.failed == MAX_WITNESSES + 1
    assert report.failures == kept
    assert report.lines() == [f"x: FAIL ({MAX_WITNESSES + 2} checks, seed=3)"] + [
        f"  witness: {w}" for w in kept
    ]


@pytest.mark.parametrize("table", [schubert_table, grothendieck_table])
def test_tables_are_dicts_keyed_by_all_of_s3(table):
    entries = table(3)
    assert type(entries) is dict
    assert set(entries) == set(all_permutations(3))
    assert all(isinstance(p, LaurentPoly) for p in entries.values())


def window_order(n):
    return sorted(all_permutations(n), key=lambda mu: mu.window)


def record_basis(monkeypatch):
    """{mu: Y_mu} as the transition drivers read it from the stream
    ``schubert.iter_yb_basis``, in the order read."""
    seen = {}
    stream = schubert.iter_yb_basis

    def recorded(alg):
        for mu, y in stream(alg):
            seen[mu] = y
            yield mu, y

    monkeypatch.setattr(schubert, "iter_yb_basis", recorded)
    return seen


def test_schubert_transition_returns_every_coefficient_by_pair(monkeypatch):
    # the driver returns the wrong table entries, none here; the basis it
    # checked is read from the stream, in window order
    ys = record_basis(monkeypatch)
    wrong, report = verify_schubert_transition(3)
    assert type(wrong) is set and not wrong and report.passed
    want = yb_basis(algebra("partial", 3))
    perms = all_permutations(3)
    assert list(ys) == window_order(3)
    for mu in perms:
        for nu in perms:
            assert ys[mu].coefficient(nu) == want[mu].coefficient(nu), (mu, nu)


def test_schubert_transition_s3_s4():
    for n in (3, 4):
        wrong, report = verify_schubert_transition(n)
        assert report.passed and not wrong, report.lines()
    # the omega coefficient display
    ys = yb_basis(algebra("partial", 3))
    assert ys[P("321")].coefficient(P("321")) == parse_scalar("(u3-u2)*(u3-u1)*(u2-u1)")
    # Y^partial_1324 = 1 - (u2-u3) partial_2
    y = yb_basis(algebra("partial", 4))[P("1324")]
    assert y.coefficient(P("1324")) == parse_scalar("u3 - u2")
    assert y.coefficient(P("1234")) == RationalFunction.one()
    support = [nu for nu in all_permutations(4) if not y.coefficient(nu).is_zero]
    assert support == [P("1234"), P("1324")]


@pytest.mark.parametrize(
    "name,verify",
    [
        ("schubert_table", verify_schubert_transition),
        ("grothendieck_table", verify_grothendieck_transition),
    ],
)
def test_transition_checks_every_pair(monkeypatch, name, verify):
    # one entry gains x1*y2, so its specialization is off by a nonzero
    # monomial at every mu: all 24 pairs of that column must fail
    build = getattr(schubert, name)

    def corrupted(n):
        table = build(n)
        table[P("1324")] = table[P("1324")] + parse_poly("x1*y2")
        return table

    monkeypatch.setattr(schubert, name, corrupted)
    _, report = verify(4)
    assert report.checks == 576 and report.failed == 24
    assert report.failures[0] == "mu=1234, nu=1324: 0 != u1*u2"


# driver -> (table builder's name in schubert, family, moved variables,
# the table entry read at nu)
TRANSITIONS = {
    verify_schubert_transition: ("schubert_table", "partial", "x", lambda nu: nu),
    verify_grothendieck_transition: ("grothendieck_table", "pibar", "y", Permutation.inverse),
}


def pairwise_transition(verify, n):
    """The pairwise check the transition drivers replace: each table entry
    specialized at every mu by a rename, the pairs recorded nu-major.  The
    table and the basis are read through the schubert module, so a
    monkeypatch there reaches both routes."""
    name, family, moved, key = TRANSITIONS[verify]
    table = getattr(schubert, name)(n)
    perms = all_permutations(n)
    stream = dict(schubert.iter_yb_basis(algebra(family, n)))
    ys = {mu: stream[mu] for mu in perms}
    report = CheckReport(name="pairwise")
    entries = dict.fromkeys(product(ys, perms))
    for nu in perms:
        for mu, y in ys.items():
            got = entries[mu, nu] = y.coefficient(nu)
            spec = schubert._specialize(table[key(nu)], mu, moved)
            report.record(got == spec, lambda: f"mu={mu}, nu={nu}: {got} != {spec}")
    return entries, report


def corrupt_table(monkeypatch, verify, nu, extra):
    name = TRANSITIONS[verify][0]
    build = getattr(schubert, name)

    def corrupted(n):
        table = build(n)
        table[nu] = table[nu] + parse_poly(extra)
        return table

    monkeypatch.setattr(schubert, name, corrupted)


def perturb_basis(monkeypatch, mu, nu, extra):
    stream = schubert.iter_yb_basis

    def perturbed(alg):
        for w, y in stream(alg):
            if w == mu:
                y = type(y)(y.alg, {**y.coeffs, nu: y.coefficient(nu) + parse_poly(extra)})
            yield w, y

    monkeypatch.setattr(schubert, "iter_yb_basis", perturbed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["unperturbed", "table", "basis"])
@pytest.mark.parametrize("verify", list(TRANSITIONS), ids=["schubert", "grothendieck"])
def test_transition_equals_the_pairwise_check(monkeypatch, verify, case, n):
    # x1*y1 specializes to the nonzero u1*u_mu(1) at every mu, so a
    # corrupted entry fails its whole column on both routes
    omega = Permutation.longest(n)
    if case == "table":
        corrupt_table(monkeypatch, verify, omega, "x1*y1")
    elif case == "basis":
        perturb_basis(monkeypatch, omega, Permutation.identity(n), "u1")
    failed = {"unperturbed": 0, "table": len(all_permutations(n)), "basis": 1}[case]
    want_entries, want = pairwise_transition(verify, n)
    ys = record_basis(monkeypatch)
    wrong, report = verify(n)
    perms = all_permutations(n)
    entries = [((mu, nu), ys[mu].coefficient(nu)) for mu in perms for nu in perms]
    assert (report.checks, report.failed) == (want.checks, want.failed) == (len(entries), failed)
    assert report.failures == want.failures
    assert entries == list(want_entries.items())
    assert wrong == ({omega} if case == "table" else set())


@pytest.mark.parametrize("verify", list(TRANSITIONS), ids=["schubert", "grothendieck"])
def test_transition_fails_exactly_the_pair_of_a_perturbed_coefficient(monkeypatch, verify):
    clean = yb_basis(algebra(TRANSITIONS[verify][1], 4))
    mu, nu = P("3142"), P("1324")
    perturb_basis(monkeypatch, mu, nu, "u2")
    _, report = verify(4)
    assert (report.checks, report.failed) == (576, 1)
    want = clean[mu].coefficient(nu)
    assert report.failures == [f"mu=3142, nu=1324: {want + parse_poly('u2')} != {want}"]


@pytest.mark.parametrize("verify", list(TRANSITIONS), ids=["schubert", "grothendieck"])
def test_a_wrong_table_entry_fails_its_whole_column(monkeypatch, verify):
    # x1 - y1 specializes to 0 at the mu with mu(1) = 1, where the pairwise
    # check passes; the table entry itself is wrong, so every pair fails,
    # and a pair that the pairwise check passes names the wrong entry
    corrupt_table(monkeypatch, verify, P("1324"), "x1 - y1")
    _, want = pairwise_transition(verify, 4)
    _, report = verify(4)
    assert (want.failed, report.failed) == (18, 24)
    named = "the table entry differs from [T_nu] of the Fomin-Kirillov product"
    assert report.failures[0] == f"mu=1234, nu=1324: {named}"
    assert all(w in want.failures or w.endswith(named) for w in report.failures)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("verify", list(TRANSITIONS), ids=["schubert", "grothendieck"])
def test_wrong_entries_are_exactly_the_corrupted_ones(monkeypatch, verify, n):
    # the entry at the cycle 23..n1 gains x1*y1; the Grothendieck driver
    # reads its table at nu^-1, so the wrong nu there is the inverse cycle
    name, family, moved, key = TRANSITIONS[verify]
    alg = algebra(family, n)

    def wrong():
        table = getattr(schubert, name)(n)
        return schubert._wrong_entries(alg, lambda nu: table[key(nu)], moved)

    assert wrong() == set()
    cycle = Permutation(tuple(range(2, n + 1)) + (1,))
    corrupt_table(monkeypatch, verify, cycle, "x1*y1")
    assert wrong() == {key(cycle)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("verify", list(TRANSITIONS), ids=["schubert", "grothendieck"])
def test_transition_returns_the_basis_it_checked(monkeypatch, verify, n):
    # the driver reads each Y_mu once from the stream, in window order, and
    # returns the wrong table entries it found: none
    ys = record_basis(monkeypatch)
    wrong, report = verify(n)
    want = yb_basis(algebra(TRANSITIONS[verify][1], n))
    assert report.passed and wrong == set()
    assert list(ys) == window_order(n)
    for mu, y in want.items():
        assert ys[mu] == y, mu


def symbols(n):
    return [[LaurentPoly.variable(f"{f}{i}") for i in range(1, n + 1)] for f in "xy"]


def fk_product(family, n):
    """The Fomin-Kirillov product P at the symbols, read by rows:
    prod_{i=1}^{n-1} prod_{j=n-1}^{i} of Y_j(y_k, x_i) in the nil-Coxeter
    algebra and of Y_j(x_i, y_k) in the pibar algebra, k = j - i + 1."""
    alg = algebra(family, n)
    x, y = symbols(n)
    h = unit(alg)
    for i in range(1, n):
        for j in range(n - 1, i - 1, -1):
            a, b = (y[j - i], x[i - 1]) if family == "partial" else (x[i - 1], y[j - i])
            h = h * elementary_factor(alg, j, a, b)
    return h


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_staircases_are_the_fomin_kirillov_products(n):
    x, y = symbols(n)
    assert schubert._staircase(algebra("partial", n), y, x) == fk_product("partial", n)
    # the pibar product read by columns: k = n-1..1, and i = 1..n-k within
    # a column, with Y_{i+k-1}(x_i, y_k) at (i, k); the driver's staircase
    # is its inverse, the reversed columns in increasing k
    alg = algebra("pibar", n)
    columns = unit(alg)
    for k in range(n - 1, 0, -1):
        for i in range(1, n - k + 1):
            columns = columns * elementary_factor(alg, i + k - 1, x[i - 1], y[k - 1])
    assert columns == fk_product("pibar", n)
    assert schubert._staircase(alg, x, y) == hecke._inverted(columns)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "family,table", [("partial", schubert_table), ("pibar", grothendieck_table)]
)
def test_fomin_kirillov_coefficients_are_the_tables(family, table, n):
    fk = fk_product(family, n)
    entries = table(n)
    assert len(entries) == len(all_permutations(n))
    for w, p in entries.items():
        assert fk.coefficient(w) == p, w


def test_fomin_kirillov_coefficients_at_n3():
    x_product, g_product = fk_product("partial", 3), fk_product("pibar", 3)
    for window, text in [
        ("321", "(x1-y1)*(x1-y2)*(x2-y1)"),
        ("132", "x1+x2-y1-y2"),
        ("213", "x1-y1"),
        ("123", "1"),
    ]:
        assert x_product.coefficient(P(window)) == parse_poly(text), window
    for window in ("321", "132", "231"):
        assert g_product.coefficient(P(window)) == parse_poly(GROTHENDIECK3[window])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family,moved", [("partial", "x"), ("pibar", "y")])
def test_specialized_staircases_are_the_staircase_specialized(family, moved, n):
    # specialization is a ring map: the product built at u^mu, prefix by
    # prefix, has the specialized coefficients of the one at the symbols
    alg = algebra(family, n)
    x, y = symbols(n)
    staircase = schubert._staircase(alg, *((y, x) if moved == "x" else (x, y)))
    seen = []
    for mu, q in schubert._specialized_staircases(alg):
        seen.append(mu)
        for w in all_permutations(n):
            spec = schubert._specialize(staircase.coefficient(w), mu, moved)
            assert q.coefficient(w) == spec, (mu, w)
    # window order, the order of iter_yb_basis, which the transitions zip
    assert seen == window_order(n)


def test_transition_unitriangular_by_length():
    perms = all_permutations(4)
    for verify in TRANSITIONS:
        assert verify(4)[1].passed
        for mu, y in yb_basis(algebra(TRANSITIONS[verify][1], 4)).items():
            for nu in perms:
                if not y.coefficient(nu).is_zero:
                    assert nu.length() <= mu.length()


def test_grothendieck_transition_s3_s4():
    for n in (3, 4):
        wrong, report = verify_grothendieck_transition(n)
        assert report.passed and not wrong, report.lines()
    ys = yb_basis(algebra("pibar", 3))
    assert ys[P("123")].coefficient(P("123")) == RationalFunction.one()
    row = [nu for nu in all_permutations(3) if not ys[P("123")].coefficient(nu).is_zero]
    assert row == [P("123")]


def test_yang_coefficients_are_polynomials():
    coeffs = yang_coefficients(P("321"))
    assert coeffs[P("123")] == parse_poly("1 + (u1-u2)*(u2-u3)")
    for nu, a in coeffs.items():
        assert not a.is_zero


def test_yang_leading_terms():
    for n in (2, 3):
        report = verify_yang_leading_terms(n)
        assert report.passed, report.lines()
    report = verify_yang_leading_terms(4, samples=20, seed=5)
    assert report.passed, report.lines()


def test_yang_leading_samples_specialize_the_sampled_table_entries_alone(monkeypatch):
    # the 20 sampled pairs read 20 specializations, not all 24 staircases
    def every_staircase(n):
        raise AssertionError("samples mode built every specialized staircase")

    monkeypatch.setattr(schubert, "_schubert_specializations", every_staircase)
    report = verify_yang_leading_terms(4, samples=20, seed=5)
    assert report.passed and report.checks > 20, report.lines()


@pytest.mark.parametrize("n,samples,checks,failed", [(3, 0, 20, 4), (4, 20, 22, 2)])
def test_yang_leading_terms_fail_on_a_wrong_table_entry(monkeypatch, n, samples, checks, failed):
    # X_213 gains x1, of its own degree, so the lowest components of the
    # pairs at nu = 213 (2134 at n = 4) are wrong, and no others; the 20
    # pairs at n = 4 are sampled under seed 0
    nu = Permutation((2, 1) + tuple(range(3, n + 1)))
    corrupt_table(monkeypatch, verify_schubert_transition, nu, "x1")
    report = verify_yang_leading_terms(n, samples=samples, seed=0)
    assert (report.checks, report.failed) == (checks, failed)
    assert all(f", nu={nu}: lowest(" in w for w in report.failures)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["unperturbed", "table"])
def test_schubert_specializations_are_the_renamed_table(monkeypatch, case, n):
    # the staircase route against the renaming oracle at every (mu, nu); a
    # corrupted entry, x1*y1 at u^mu the nonzero u1*u_mu(1), is read from
    # the table, so the values are the table's in both cases
    if case == "table":
        corrupt_table(monkeypatch, verify_schubert_transition, Permutation.longest(n), "x1*y1")
    table = schubert.schubert_table(n)
    rows = schubert._schubert_specializations(n)
    perms = all_permutations(n)
    assert list(rows) == perms
    for mu, row in rows.items():
        assert list(row) == perms
        for nu, value in row.items():
            assert value == specialize_double(table[nu], mu), (mu, nu)


def test_newton_interpolation():
    report = verify_newton_interpolation(3, seed=11)
    assert report.passed, report.lines()
    # constants and the identity permutation are trivially fixed
    report = verify_newton_interpolation(2, seed=12)
    assert report.passed


def test_normal_ordering():
    report = verify_normal_ordering(3, seed=13)
    assert report.passed, report.lines()


def test_newton_interpolation_fails_on_a_wrong_table_entry(monkeypatch):
    table = schubert_table(3)

    def wrong_table(n):
        return {**table, P("213"): table[P("213")] + parse_poly("x1")}

    monkeypatch.setattr(schubert, "schubert_table", wrong_table)
    report = verify_newton_interpolation(3, seed=1)
    assert not report.passed and report.checks == 60


def test_normal_ordering_fails_on_a_wrong_coefficient(monkeypatch):
    ys = yb_basis(algebra("partial", 3))

    def wrong_basis(alg):
        y = ys[P("321")]
        coeffs = dict(y.coeffs)
        coeffs[P("123")] = coeffs[P("123")] + LaurentPoly.one()
        return {**ys, P("321"): type(y)(y.alg, coeffs)}

    monkeypatch.setattr(schubert, "yb_basis", wrong_basis)
    report = verify_normal_ordering(3, seed=1)
    assert not report.passed and report.checks == 60


def test_appendix_factorizations():
    for shape, mode in [
        ((1, 1, 1, 1), "qpow"),
        ((2, 2), "qpow"),
        ((3,), "qpow"),
        ((3,), "linear"),
        ((1, 1, 1), "linear"),
    ]:
        report = verify_appendix_factorizations(shape, mode, seed=7)
        assert report.passed, (shape, mode, report.lines())
    with pytest.raises(ShapeInvalid):
        verify_appendix_factorizations((0, 2), "qpow")
    with pytest.raises(ValueError):
        verify_appendix_factorizations((2,), "cubic")


@pytest.mark.parametrize("shape,error", [((), ShapeInvalid), ((4, 3), RankOutOfRange)])
def test_appendix_refuses_a_bad_shape(shape, error):
    with pytest.raises(error):
        verify_appendix_factorizations(shape, "qpow")


def test_appendix_takes_the_rank_guard_of_all_permutations():
    with pytest.raises(RankOutOfRange, match="^rank 7 outside 1..6$"):
        verify_appendix_factorizations((4, 3), "qpow")


def test_cohomology_basis():
    for n in (1, 2, 3):
        report = verify_cohomology_basis(n)
        assert report.passed, report.lines()


def test_cohomology_basis_fails_on_a_wrong_table_entry(monkeypatch):
    # X_213(x, 0) = x1 gains a second x1: its leading coefficient reads 2, so
    # the check of that one entry fails, and nothing else does
    descend = schubert._descend

    def wrong_table(n, factor, family):
        table = descend(n, factor, family)
        return {**table, P("213"): table[P("213")] + parse_poly("x1")}

    monkeypatch.setattr(schubert, "_descend", wrong_table)
    report = verify_cohomology_basis(3)
    assert report.checks == 7 and report.failed == 1
    assert report.failures == ["X_213(x, 0) is not x^(1, 0, 0) plus lex-lower Artin monomials"]


@pytest.mark.parametrize("kappa", all_permutations(4), ids=str)
@pytest.mark.parametrize("extra", ["lead", "x1^4"])
def test_cohomology_basis_fails_exactly_the_changed_table_entry(monkeypatch, kappa, extra):
    # X_kappa(x, 0) once more its leading monomial x^code(kappa) (coefficient
    # 2), or plus x1^4, which lies outside the Artin span (x1^4 = 0 mod I)
    descend = schubert._descend
    w = kappa.window
    code = [sum(b < a for b in w[i:]) for i, a in enumerate(w, 1)]
    lead = LaurentPoly.monomial({f"x{i}": e for i, e in enumerate(code, 1)})

    def changed(n, factor, family):
        table = descend(n, factor, family)
        return {**table, kappa: table[kappa] + (lead if extra == "lead" else parse_poly(extra))}

    monkeypatch.setattr(schubert, "_descend", changed)
    report = verify_cohomology_basis(4)
    assert (report.checks, report.failed) == (25, 1)
    assert report.failures == [
        f"X_{kappa}(x, 0) is not x^{tuple(code)} plus lex-lower Artin monomials"
    ]


def y_free(f, n):
    """f with every y1..yn set to 0, read through coefficients_in."""
    for j in range(1, n + 1):
        f = coefficients_in(f, f"y{j}").get(0, LaurentPoly.zero())
    return f


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cohomology_classes_are_the_y_free_parts_of_the_table(monkeypatch, n):
    # X_kappa(x, 0) descended from x^delta, as the suite reads it, against
    # the double table with every y set to 0
    want = {kappa: y_free(f, n) for kappa, f in schubert_table(n).items()}
    seen = []
    descend = schubert._descend

    def recording(*args):
        seen.append(descend(*args))
        return dict(seen[-1])  # the suite pops its entries

    monkeypatch.setattr(schubert, "_descend", recording)
    assert verify_cohomology_basis(n).passed
    [classes] = seen
    assert list(classes) == list(want)
    for kappa, f in want.items():
        assert classes[kappa] == f, kappa


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cohomology_basis_is_singular_when_the_step_is_the_identity(monkeypatch, n):
    # every image is then x^delta itself, one row repeated n! times
    monkeypatch.setattr(schubert, "_s_step", lambda f, j, a, b, n: f)
    report = verify_cohomology_basis(n)
    assert (report.checks, report.failed) == (prod(range(1, n + 1)) + 1, 1)
    assert report.failures == ["coordinate matrix is singular"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walked_images_are_the_per_word_images(n):
    staircase = LaurentPoly.monomial({f"x{i}": n - i for i in range(1, n)})
    walked = dict(schubert._cohomology_images(n))
    assert list(walked) == sorted(all_permutations(n), key=lambda mu: mu.window)
    for mu, image in walked.items():
        assert image == schubert._yb_operator(mu, staircase, schubert._s_step), mu


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_normal_forms_are_the_schubert_coordinates_through_the_table(n):
    # NF(f) = sum_kappa (partial_kappa f)(0) NF(X_kappa(x, 0)), the Schubert
    # coordinates of f read as the constant terms of its divided differences
    def whole(f):
        return {nu: img.coefficient({}) for nu, img in all_inverse_words("partial", f, n).items()}

    rng = random.Random(n)
    normal_form = schubert._normal_form(n)
    entries = {kappa: y_free(f, n) for kappa, f in schubert_table(n).items()}
    classes = {kappa: normal_form(f) for kappa, f in entries.items()}
    probes = list(entries.values()) + [f for _, f in schubert._cohomology_images(n)]
    probes += [random_probe(rng, n) for _ in range(5)]
    for f in probes:
        coords = whole(f)
        want = [sum(coords[kappa] * row[k] for kappa, row in classes.items())
                for k in range(len(coords))]
        assert normal_form(f) == want, f


def test_degeneration():
    # G_213 = 1 - y1/x1 degenerates to (a1-b1)/(1-b1), lowest part a1 - b1
    report = verify_groth_to_schubert_degeneration(3)
    assert report.passed, report.lines()
    report = verify_groth_to_schubert_degeneration(2)
    assert report.passed


def test_groth_specialization_pattern_35142():
    # the sigma_2 coefficient of the pibar element at n=5 reproduces the
    # G_132-shaped value with spectral parameters renamed to x's
    alg = algebra("pibar", 5)
    from ybhecke.hecke import yb_element

    y = yb_element(alg, P("35142"))
    got = as_rf(y.coefficient(P("13245")))
    ren = {f"u{i}": f"x{i}" for i in range(1, 6)}
    got = RationalFunction(rename_poly(got.num, ren), rename_poly(got.den, ren))
    assert got == parse_scalar("1 - x3*x5/(x1*x2)")


def test_invertible_eliminates_exactly():
    from fractions import Fraction

    assert schubert._invertible([[1, 2], [3, 4]])
    # singular, and 1/3 has no float: a float pivot ratio leaves 4.4e-16 behind
    assert not schubert._invertible([[3, 7], [1, Fraction(7, 3)]])
    assert not schubert._invertible([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert schubert._invertible([[0, Fraction(1, 2)], [Fraction(2, 3), 5]])


def _cleared_entry(g, n):
    # the suite's route: every x_i and y_j cleared in turn by schubert._cleared
    for i in range(1, n + 1):
        g = schubert._cleared(g, f"x{i}", 1 - LaurentPoly.variable(f"u{i}"))
    for j in range(1, n + 1):
        g = schubert._cleared(g, f"y{j}", 1 - LaurentPoly.variable(f"y{j}"))
    return g


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_degeneration_by_clearing_matches_substitution(n):
    # the earlier route: substitute into RationalFunction, then compare the
    # lowest component of the numerator with X_mu times the constant term
    # of the denominator; the cleared polynomial's lowest component is X_mu
    images = {}
    for i in range(1, n + 1):
        images[f"x{i}"] = RationalFunction(1, 1 - LaurentPoly.variable(f"u{i}"))
        images[f"y{i}"] = RationalFunction(1, 1 - LaurentPoly.variable(f"y{i}"))
    low_vars = {f"u{i}" for i in range(1, n + 1)} | {f"y{j}" for j in range(1, n + 1)}
    tou = {f"x{i}": f"u{i}" for i in range(1, n + 1)}
    gtable, xtable = grothendieck_table(n), schubert_table(n)
    for mu in all_permutations(n):
        img = substitute_poly(gtable[mu], images)
        den_const = img.den.coefficient({})
        assert den_const != 0, mu
        old = lowest_homogeneous_component(img.num, low_vars)
        new = lowest_homogeneous_component(_cleared_entry(gtable[mu], n), low_vars)
        assert old == new * den_const, mu
        assert new == rename_poly(xtable[mu], tou), mu


def test_cleared_is_the_power_times_the_substitution():
    # w^d p(v -> 1/w) with d = 2, the top exponent of y1, and w = 1 - y1
    p = parse_poly("3*y1^2*x1 - y1 + 5*x1^-1")
    w = 1 - LaurentPoly.variable("y1")
    got = schubert._cleared(p, "y1", w)
    assert got == parse_poly("3*x1") - w + 5 * w ** 2 * parse_poly("x1^-1")
    # x1 has exponents 1 and -1, so d = 1 and x1^e becomes w^(1-e)
    w = 1 - LaurentPoly.variable("u1")
    got = schubert._cleared(p, "x1", w)
    assert got == 3 * parse_poly("y1^2") - parse_poly("y1") * w + 5 * w ** 2


def test_degeneration_fails_on_a_wrong_table_entry(monkeypatch):
    table = grothendieck_table(3)

    def wrong_table(n):
        return {**table, P("213"): table[P("213")] + parse_poly("y2*x2^-1")}

    monkeypatch.setattr(schubert, "grothendieck_table", wrong_table)
    report = verify_groth_to_schubert_degeneration(3)
    assert report.checks == 6 and report.failed == 1
    assert report.failures == ["mu=213: lowest component mismatch"]


def _fraction_step(f, j, a, b, n):
    # the unscaled degenerate-family factor s_j + 1/(u_a - u_b) at u_i = i
    return apply_generator("s", j, f, n) + f * Fraction(1, a - b)


@pytest.mark.parametrize("n", [3, 4])
def test_scaled_step_is_the_fraction_step_times_the_inversion_product(n):
    rng = random.Random(n)
    staircase = LaurentPoly.monomial({f"x{i}": n - i for i in range(1, n)})
    for mu in all_permutations(n):
        steps = list(word_steps(n, mu.reduced_word()))
        inversions = {
            (mu(j), mu(i))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if mu(i) > mu(j)
        }
        assert sorted((a, b) for _, a, b in steps) == sorted(inversions), mu
        scale = prod(a - b for _, a, b in steps)
        for f in (staircase, random_probe(rng, n)):
            scaled = schubert._yb_operator(mu, f, schubert._s_step)
            assert scaled == scale * schubert._yb_operator(mu, f, _fraction_step), (mu, f)
