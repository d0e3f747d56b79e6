"""Double Schubert and Grothendieck polynomials and the transition theorems.

The tables start from the dominant products

    X_omega = prod_{i+j<=n} (x_i - y_j),
    G_omega = prod_{i+j<=n} (1 - y_j/x_i),

and descend through divided differences (partial_i for X, pi_i for G) along
the weak order; each table is a plain dict from mu to its polynomial, for
the ranks :func:`~ybhecke.permutations.all_permutations` enumerates.  The
verification drivers then tie the abstract Yang-Baxter elements to
specializations of these tables (the two transition drivers also return
the set of table entries they found wrong):

* the coefficients of Y_mu in the nil-Coxeter family are X_nu(u^mu, u);
* the coefficients of Y_mu in the pibar family are G_{nu^{-1}}(u, u^mu);
* the coefficients of Y_mu in the permutation family are inhomogeneous
  polynomials whose lowest homogeneous component is X_nu(u^mu, u);

together with the Newton interpolation identity, the normal-ordering rule,
the appendix factorizations for Young subgroups, and the cohomology basis
(:func:`verify_cohomology_basis`): the images of x^delta under the
degenerate-family operators are a basis of the coinvariant ring, decided by
normal forms modulo the symmetric ideal.

A specialization has two routes.  Every entry at every mu is read at once
from the Fomin-Kirillov product of Yang-Baxter factors
(:func:`_staircase`): it has the table entries as its coefficients, and
specialization is a ring map, so the product specialized at mu, built once
per prefix of mu, has X_nu(u^mu, u) (or G_{nu^{-1}}(u, u^mu)) as its
coefficient at every nu.  The transition drivers, Newton interpolation and
the Yang leading terms read it.  One entry at one mu is one
:func:`~ybhecke.poly.rename_poly` (:func:`specialize_double` and its
mirror), at the symbols u1..un.  X_213 = x1 - y1 at mu = 213:

>>> mu = Permutation.from_string("213")
>>> print(specialize_double(schubert_table(3)[mu], mu))
-u1 + u2
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import add
from typing import Callable, Iterator, Sequence

from .errors import ShapeInvalid
from .hecke import (
    AlgebraSpec,
    HeckeElement,
    algebra,
    elementary_factor,
    iter_yb_basis,
    symbolic_spectral,
    unit,
    word_steps,
    yb_basis,
    yb_element,
)
from .operators import all_inverse_words, apply_generator, apply_inverse_word, random_probe
from .permutations import Permutation, all_permutations, check_rank, weak_order_walk
from .poly import (
    LaurentPoly,
    Scalar,
    coefficients_in,
    exponent_vectors,
    lowest_homogeneous_component,
    rename_poly,
    sum_of_products,
    var_parts,
)
from .report import CheckReport

__all__ = [
    "schubert_table",
    "grothendieck_table",
    "specialize_double",
    "verify_schubert_transition",
    "verify_grothendieck_transition",
    "yang_coefficients",
    "verify_yang_leading_terms",
    "verify_newton_interpolation",
    "verify_normal_ordering",
    "verify_appendix_factorizations",
    "verify_appendix",
    "verify_cohomology_basis",
    "verify_groth_to_schubert_degeneration",
]


def _descend(n: int, factor: Callable[[int, int], LaurentPoly], family: str) -> dict:
    """Fill a table from the dominant entry top = prod_{i+j<=n} factor(i, j):
    the entry at omega nu^-1 is D_nu(top), one divided difference per entry.
    omega is the last of :func:`all_permutations`, so its rank guard fires
    before top is multiplied out."""
    omega = all_permutations(n)[-1]
    top = LaurentPoly.one()
    for i in range(1, n):
        for j in range(1, n - i + 1):
            top = top * factor(i, j)
    images = all_inverse_words(family, top, n)
    return {omega * nu.inverse(): image for nu, image in images.items()}


def schubert_table(n: int) -> dict[Permutation, LaurentPoly]:
    """All n! double Schubert polynomials X_mu(x, y), keyed by mu."""
    var = LaurentPoly.variable
    return _descend(n, lambda i, j: var(f"x{i}") - var(f"y{j}"), "partial")


def grothendieck_table(n: int) -> dict[Permutation, LaurentPoly]:
    """All n! double Grothendieck polynomials G_mu(x, y), keyed by mu; the
    entries carry negative x exponents."""
    var = LaurentPoly.variable
    return _descend(n, lambda i, j: 1 - var(f"y{j}") * var(f"x{i}", -1), "pi")


def _specialize(p: LaurentPoly, mu: Permutation, moved: str) -> LaurentPoly:
    """p with moved_i -> u_{mu(i)} and the other family's v_j -> u_j, one
    rename; ``moved`` is x or y."""
    fixed = "y" if moved == "x" else "x"
    varmap = {f"{fixed}{j}": f"u{j}" for j in range(1, mu.n + 1)}
    varmap.update((f"{moved}{i}", f"u{w}") for i, w in enumerate(mu.window, 1))
    return rename_poly(p, varmap)


def specialize_double(p: LaurentPoly, mu: Permutation) -> LaurentPoly:
    """The specialization p(u^mu, u): rename x_i -> u_{mu(i)}, y_j -> u_j."""
    return _specialize(p, mu, "x")


def _specialize_swapped(p: LaurentPoly, mu: Permutation) -> LaurentPoly:
    """The mirror specialization p(u, u^mu): x_i -> u_i, y_j -> u_{mu(j)}."""
    return _specialize(p, mu, "y")


# ----------------------------------------------------------------------
# transition matrices


def _layer(h: HeckeElement, d: int, fixed: Sequence[LaurentPoly], m: LaurentPoly) -> HeckeElement:
    """h times layer d of the staircase: the factors Y_{d+e-1}(fixed_e, m)
    for e = n-d, ..., 1, each a right multiplication.  A factor
    Y_j(w, w) = 1 + c(w, w) T_j is 1, since c(w, w) = 0, and is skipped."""
    for e in range(h.alg.n - d, 0, -1):
        if fixed[e - 1] != m:
            h = h * elementary_factor(h.alg, d + e - 1, fixed[e - 1], m)
    return h


def _staircase(
    alg: AlgebraSpec, fixed: Sequence[LaurentPoly], moved: Sequence[LaurentPoly]
) -> HeckeElement:
    """The Fomin-Kirillov product prod_{d=1}^{n-1} prod_{e=n-d}^{1}
    Y_{d+e-1}(fixed_e, moved_d): its layer d holds moved_d alone."""
    h = unit(alg)
    for d in range(1, alg.n):
        h = _layer(h, d, fixed, moved[d - 1])
    return h


def _specialized_staircases(alg: AlgebraSpec) -> Iterator[tuple[Permutation, HeckeElement]]:
    """(mu, the staircase at fixed = u, moved = u^mu) for every mu in S_n,
    in window order, the order of :func:`~ybhecke.hecke.iter_yb_basis`.

    Layer d holds u_{mu(d)} alone, so the products share the prefixes of the
    windows: they are built over the trie of the prefixes mu(1)..mu(d),
    one layer per node, by right multiplications alone.  The trie is walked
    depth first, each node's children by increasing value, and a node is
    dropped once its subtree is done, so only one chain of nodes is alive
    at a time (206 nodes in all at n = 5).
    """
    n = alg.n
    u = symbolic_spectral(n)

    def walk(prefix: tuple[int, ...], h: HeckeElement):
        if len(prefix) == n - 1:
            last = set(range(1, n + 1)).difference(prefix)
            yield Permutation(prefix + tuple(last)), h
            return
        for v in range(1, n + 1):
            if v not in prefix:
                yield from walk(prefix + (v,), _layer(h, len(prefix) + 1, u, u[v - 1]))

    return walk((), unit(alg))


def _symbols(family: str, n: int) -> list[LaurentPoly]:
    """The variables family1..familyn."""
    return [LaurentPoly.variable(f"{family}{i}") for i in range(1, n + 1)]


def _wrong_entries(alg: AlgebraSpec, want: Callable, moved: str) -> set[Permutation]:
    """The nu whose want(nu) is not [T_nu] of :func:`_staircase` at the
    symbols, the ``moved`` family (x or y) in its layers."""
    n = alg.n
    q = _staircase(alg, _symbols("y" if moved == "x" else "x", n), _symbols(moved, n))
    return {nu for nu in all_permutations(n) if q.coefficient(nu) != want(nu)}


def _schubert_specializations(n: int) -> dict[Permutation, dict]:
    """{mu: {nu: X_nu(u^mu, u)}} over S_n x S_n, both in
    :func:`all_permutations` order.

    The values are the coefficients of the nil-Coxeter staircase at u^mu
    (:func:`_specialized_staircases`), whose [T_nu] at the symbols is X_nu.
    A table entry in :func:`_wrong_entries` is specialized by
    :func:`specialize_double` instead, so the values are the table's in
    every case.
    """
    alg = algebra("partial", n)
    table = schubert_table(n)
    wrong = _wrong_entries(alg, table.__getitem__, "x")
    perms = all_permutations(n)
    rows = dict.fromkeys(perms)  # filled below
    for mu, q_mu in _specialized_staircases(alg):
        rows[mu] = {
            nu: specialize_double(table[nu], mu) if nu in wrong else q_mu.coefficient(nu)
            for nu in perms
        }
    return rows


def _check_transition(
    report: CheckReport, alg: AlgebraSpec, want: Callable[[Permutation], LaurentPoly], moved: str
) -> set[Permutation]:
    """Check each coefficient [T_nu]Y_mu against want(nu) specialized at mu
    (the ``moved`` variables at u^mu, the others at u) through the staircase
    Q = :func:`_staircase`, whose [T_nu]Q is want(nu).

    Specialization is a ring map, so [T_nu] of the specialized Q is want(nu)
    specialized, for every nu at once.  So the link to the tables is
    decided once, at the symbols, by :func:`_wrong_entries`; then each Y_mu
    is compared with Q at u^mu.  :func:`~ybhecke.hecke.iter_yb_basis` and
    :func:`_specialized_staircases` both reach mu in window order, so the
    two walks are read side by side and neither is held whole.  A pair
    passes iff its nu is not a wrong entry and the second comparison holds,
    so a wrong want(nu) fails all of its nu-column; only the coefficients
    [T_nu]Y_mu of the failing pairs are kept.  The pairs are recorded, and
    failures kept, nu-major.  A failed pair that the report keeps is
    witnessed by want(nu) specialized at mu by :func:`_specialize`, or,
    where that equals [T_nu]Y_mu, by the wrong table entry.  Returns the
    wrong entries, the empty set when the table is right.
    """
    perms = all_permutations(alg.n)
    wrong = _wrong_entries(alg, want, moved)
    got = {}  # (mu, nu) -> [T_nu]Y_mu, for the failing pairs
    for (mu, y), (_, q_mu) in zip(iter_yb_basis(alg), _specialized_staircases(alg)):
        failing = wrong
        if y.coeffs != q_mu.coeffs:
            failing = [nu for nu in perms
                       if nu in wrong or y.coefficient(nu) != q_mu.coefficient(nu)]
        got.update(((mu, nu), y.coefficient(nu)) for nu in failing)

    def witness(mu: Permutation, nu: Permutation) -> str:
        coeff, spec = got[mu, nu], _specialize(want(nu), mu, moved)
        if coeff != spec:
            return f"mu={mu}, nu={nu}: {coeff} != {spec}"
        return (
            f"mu={mu}, nu={nu}: the table entry differs from [T_nu] of the Fomin-Kirillov product"
        )

    for nu in perms:
        for mu in perms:
            if (mu, nu) not in got:
                report.record(True, "")
            else:
                report.record(False, lambda: witness(mu, nu))
    return wrong


def verify_schubert_transition(n: int) -> tuple[set[Permutation], CheckReport]:
    """Check Y_mu in the nil-Coxeter family expands with Schubert coefficients.

    For every mu, nu the coefficient of the basis element indexed by nu in
    Y_mu(u) must equal X_nu(u^mu, u).  The check goes through the
    Fomin-Kirillov product of the nil-Coxeter algebra, read by rows,

        P = prod_{i=1}^{n-1} prod_{j=n-1}^{i} Y_j(y_{j-i+1}, x_i),

    whose [T_w]P is X_w(x, y).  Specialization is a ring map, so [T_nu] of
    P(u^mu, u) is X_nu(u^mu, u) for every nu at once; row i holds x_i
    alone, so P(u^mu, u) is built over the prefixes of mu.  A pair passes
    iff [T_nu]P equals the table entry X_nu and [T_nu]Y_mu equals
    [T_nu]P(u^mu, u); so a wrong table entry X_nu fails every pair of its
    column, whatever it specializes to at mu.  The pairs are checked, and
    failures kept, nu-major.  Returns the set of wrong table entries X_nu
    (keyed by nu; empty when the table is right) and the report.
    """
    report = CheckReport(name=f"schubert-transition[n={n}]")
    table = schubert_table(n)
    return _check_transition(report, algebra("partial", n), lambda nu: table[nu], "x"), report


def verify_grothendieck_transition(n: int) -> tuple[set[Permutation], CheckReport]:
    """Check Y_mu in the pibar family expands with Grothendieck coefficients.

    For every mu, nu the coefficient indexed by nu in Y_mu(u) must equal the
    specialization G_{nu^{-1}}(u, u^mu): first argument u, second u^mu, and
    the table entry taken at the inverse.  (This is the orientation forced by
    the worked 35142 coefficient, the q-specialization link to the generic
    family, and exhaustive checks; it mirrors the Schubert-side coefficient
    X_nu(u^mu, u) through the classical inversion duality of the tables.)

    The Fomin-Kirillov product of the pibar algebra is the same staircase,

        P = prod_{i=1}^{n-1} prod_{j=n-1}^{i} Y_j(x_i, y_{j-i+1}),

    whose [T_w]P is G_w(x, y).  Read by columns instead, k = n-1..1 and
    within each column i = 1..n-k, with Y_{i+k-1}(x_i, y_k) at (i, k), it is
    the same element: two factors that the readings put in a different
    order have generators j, j' with |j - j'| >= 2, and so commute.  Column
    k holds y_k alone.  The anti-automorphism T_w -> T_{w^{-1}} fixes each
    factor 1 + c T_j and reverses products, so the inverse Q of P is the
    reversed columns in increasing k, and [T_nu]Q = G_{nu^{-1}}(x, y).
    Specialization is a ring map, so [T_nu] of Q(u, u^mu) is
    G_{nu^{-1}}(u, u^mu) for every nu at once, and Q(u, u^mu) is built over
    the prefixes of mu.  A pair passes iff [T_nu]Q equals the table entry
    G_{nu^{-1}} and [T_nu]Y_mu equals [T_nu]Q(u, u^mu); so a wrong table
    entry G_{nu^{-1}} fails every pair of the column nu.  The pairs are
    checked, and failures kept, nu-major.  Returns the set of the nu whose
    table entry G_{nu^{-1}} is wrong (empty when the table is right) and
    the report.
    """
    report = CheckReport(name=f"grothendieck-transition[n={n}]")
    table = grothendieck_table(n)
    wrong = _check_transition(report, algebra("pibar", n), lambda nu: table[nu.inverse()], "y")
    return wrong, report


def yang_coefficients(mu: Permutation) -> dict:
    """The coefficients A_nu(mu) of Y_mu in the permutation family at the
    symbols u1..un, each a LaurentPoly (the group algebra produces no
    denominators there)."""
    return dict(yb_element(algebra("sigma", mu.n), mu).coeffs)


def verify_yang_leading_terms(
    n: int, samples: int = 0, seed: int = 0
) -> CheckReport:
    """Lowest homogeneous components of A_nu(mu) are Schubert specializations.

    Exhaustive over S_n; when ``samples`` is positive only that many random
    (mu, nu) pairs with nonzero coefficient are checked (used at n=4).
    The X_nu(u^mu, u) are read from :func:`_schubert_specializations`; a
    sampled run specializes only the table entries of its pairs, by
    :func:`specialize_double`, which gives the same values.  Over all of
    S_n the staircases, which share their prefixes, are the cheaper route:
    at n = 5 the exhaustive check takes 0.33-0.40 s of CPU through them and
    0.78-1.0 s through a rename per pair.
    """
    report = CheckReport(name=f"yang-leading-terms[n={n}]", seed=seed)
    uvars = {f"u{i}" for i in range(1, n + 1)}
    pairs = []
    coeffs = {}
    for mu in all_permutations(n):
        coeffs[mu] = yang_coefficients(mu)
        for nu in coeffs[mu]:
            pairs.append((mu, nu))
    if samples:
        rng = random.Random(seed)
        pairs = rng.sample(pairs, min(samples, len(pairs)))
        table = schubert_table(n)
        wants = {mu: {} for mu, _ in pairs}
        for mu, nu in pairs:
            wants[mu][nu] = specialize_double(table[nu], mu)
    else:
        wants = _schubert_specializations(n)
    for mu, nu in pairs:
        a = coeffs[mu][nu]
        low = lowest_homogeneous_component(a, uvars)
        want = wants[mu][nu]
        report.record(
            want == low, lambda: f"mu={mu}, nu={nu}: lowest({a}) != {want}"
        )
        rest = a - low
        if not rest.is_zero:
            deg = min(
                sum(e for v, e in m if v in uvars) for m, _ in rest
            )
            report.record(
                deg > nu.length(),
                lambda: f"mu={mu}, nu={nu}: higher part has degree {deg} <= l(nu)",
            )
    return report


# ----------------------------------------------------------------------
# Newton interpolation and normal ordering


def _check_permutation_expansion(
    report: CheckReport, coeffs: dict, n: int, seed: int
) -> None:
    """Check f(u^mu) = sum_nu coeffs[mu][nu] (partial_nu f)(u) for every mu,
    with f(u^mu) the rename x_i -> u_{mu(i)} by :func:`_specialize`; f runs
    over 10 random integer polynomials in x of degree <= 4, drawn under
    ``seed``.  The coefficients are LaurentPolys in u, so each probe's n!
    divided differences move to u once."""
    rng = random.Random(seed)
    tou = {f"x{i}": f"u{i}" for i in range(1, n + 1)}
    for _ in range(10):
        f = random_probe(rng, n)
        diffs = {nu: rename_poly(d, tou) for nu, d in all_inverse_words("partial", f, n).items()}
        for mu, row in coeffs.items():
            total = sum_of_products((c, diffs[nu]) for nu, c in row.items())
            report.record(total == _specialize(f, mu, "x"), lambda: f"mu={mu}, f={f}")


def verify_newton_interpolation(n: int, seed: int = 0) -> CheckReport:
    """Check the Newton interpolation identity at y = u on 10 random probes.

    The identity sum_nu X_nu(x^mu, y) (partial^y_nu f)(y) = f(x^mu), with
    the divided differences acting on y, is checked in the form it takes at
    x = y = u:

        sum_nu X_nu(u^mu, u) (partial_nu f)(u) = f(u^mu).

    The X_nu(u^mu, u) are read from :func:`_schubert_specializations`.
    The check is randomized under ``seed``.
    """
    report = CheckReport(name=f"newton-interpolation[n={n}]", seed=seed)
    _check_permutation_expansion(report, _schubert_specializations(n), n, seed)
    return report


def verify_normal_ordering(n: int, seed: int = 0) -> CheckReport:
    """A permutation equals its Yang-Baxter element, normally ordered.

    The nil-Coxeter expansion coefficients of Y_mu, placed left of the
    operators partial_nu acting on u, give an operator equal to the
    substitution action of mu: sum_nu Y_mu(nu) (partial_nu f)(u) = f(u^mu).
    The check is randomized under ``seed``: 10 random probes f.
    """
    report = CheckReport(name=f"normal-ordering[n={n}]", seed=seed)
    ys = yb_basis(algebra("partial", n))
    coeffs = {mu: y.coeffs for mu, y in ys.items()}
    _check_permutation_expansion(report, coeffs, n, seed)
    return report


# ----------------------------------------------------------------------
# appendix: factorizations for Young subgroups and the cohomology basis


def _young_max(shape: Sequence[int]) -> Permutation:
    """Longest element of the Young subgroup S_{i1} x S_{i2} x ..."""
    window: list[int] = []
    offset = 0
    for part in shape:
        window.extend(range(offset + part, offset, -1))
        offset += part
    return Permutation(window)


def _check_shape(shape: Sequence[int]) -> int:
    if not shape or any(p < 1 for p in shape):
        raise ShapeInvalid(f"invalid composition {shape!r}")
    total = sum(shape)
    check_rank(total)
    return total


def _yb_operator(mu: Permutation, f: LaurentPoly, step) -> LaurentPoly:
    """Apply the Yang-Baxter operator of mu to f, one factor per letter of
    the reduced word of mu: ``step(f, j, a, b, n)`` applies the factor at
    generator j joining the spectral parameters u_a and u_b, as
    :func:`~ybhecke.hecke.word_steps` gives them; a < b along a reduced word."""
    for j, a, b in word_steps(mu.n, mu.reduced_word()):
        f = step(f, j, a, b, mu.n)
    return f


def _s_step(f, j, a, b, n):
    # (a - b)(s_j + 1/(u_a - u_b)) at u_i = i, the degenerate-family factor
    # scaled to stay over Z, applied to f.  Along a reduced word of mu the
    # (a, b) are the value-inversions of mu, each once.
    return (a - b) * apply_generator("s", j, f, n) + f


def verify_appendix_factorizations(
    shape: Sequence[int], qmode: str = "qpow", seed: int = 0
) -> CheckReport:
    """Factorization of Yang-Baxter operators for maximal Young elements.

    qpow mode: with u_i = q^(i-1) and (q1, q2) = (q, -1), the operator Y_mu
    for the longest element mu of the Young subgroup factors through the
    blockwise q-Vandermonde products

        prod_{i<j} [j-i]_q (x_i - q x_j),      [k]_q = 1 + q + ... + q^(k-1),

    times the divided difference of mu (for blocks of size 2 the bracket is
    1 and this is the bare q-Vandermonde).  linear mode: with u_i = i, the
    degenerate family factors through prod_{i<j} (1 + x_j - x_i) blockwise.
    The value-inversions of mu are the pairs i < j within a block, so with
    the steps of :func:`_s_step` the factor is (i - j)(1 + x_j - x_i).
    Both sides are compared on 5 random probes, randomized under ``seed``.
    """
    n = _check_shape(shape)
    report = CheckReport(name=f"appendix[{qmode}, shape={tuple(shape)}]", seed=seed)
    rng = random.Random(seed)
    mu = _young_max(shape)
    if qmode == "qpow":
        q = LaurentPoly.variable("q1")

        def bracket(k):
            return sum((q ** i for i in range(k)), LaurentPoly.zero())

        def step(f, j, a, b, n):
            # the generic factor 1 + (u_b/u_a - 1)/(q1+q2) t_j, applied to f;
            # u_b/u_a = q^(b-a), so the coefficient is [b-a]_q, and at
            # (q1, q2) = (q, -1) t_j = (1 - q) pibar_j - sigma_j
            t = (1 - q) * apply_generator("pibar", j, f, n) - apply_generator("sigma", j, f, n)
            return f + bracket(b - a) * t

        def factor(i, j):
            xi, xj = LaurentPoly.variable(f"x{i}"), LaurentPoly.variable(f"x{j}")
            return bracket(j - i) * (xi - q * xj)

    elif qmode == "linear":
        step = _s_step

        def factor(i, j):
            return (i - j) * (1 + LaurentPoly.variable(f"x{j}") - LaurentPoly.variable(f"x{i}"))

    else:
        raise ValueError(f"unknown q-mode {qmode!r}")
    prefactor = LaurentPoly.one()
    offset = 0
    for part in shape:
        for i, j in combinations(range(offset + 1, offset + part + 1), 2):
            prefactor = prefactor * factor(i, j)
        offset += part
    for _ in range(5):
        f = random_probe(rng, n)
        lhs = _yb_operator(mu, f, step)
        rhs = prefactor * apply_inverse_word("partial", mu, f)
        report.record(lhs == rhs, lambda: f"f={f}")
    return report


def verify_appendix(n: int, seed: int = 0) -> list[CheckReport]:
    """The appendix factorizations at rank n in both q-modes, for the shapes
    1^n, (n) and, at n = 4, (2, 2), each distinct shape once: at n = 1 the
    first two are the one shape (1,)."""
    shapes = dict.fromkeys([(1,) * n, (n,)] + ([(2, 2)] if n == 4 else []))
    modes = ("qpow", "linear")
    return [verify_appendix_factorizations(s, q, seed=seed) for s in shapes for q in modes]


def _normal_form(n: int) -> Callable[[LaurentPoly], list]:
    """f -> the coefficients of f modulo the ideal I of the symmetric
    polynomials without constant term over the Artin monomials x^alpha,
    alpha_i <= n - i, listed in :func:`itertools.product` order of alpha;
    the form of each monomial is memoised.

    h_{n-i+1}(x_1..x_i), i = 1..n, leads with x_i^{n-i+1} in lex order
    x_n > ... > x_1.  So x^alpha, with i the last index where alpha_i > n - i,
    is x^alpha / x_i^{n-i+1} times the other, lex-lower monomials of that h,
    negated; each step keeps the degree and lowers the monomial.
    """
    artin = {a: k for k, a in enumerate(product(*(range(n - i + 1) for i in range(1, n + 1))))}
    tails = []
    for i in range(1, n + 1):
        tail = []
        for letters in combinations_with_replacement(range(i), n - i + 1):
            if letters[0] < i - 1:  # not x_i^{n-i+1} itself
                tail.append(tuple(letters.count(k) for k in range(n)))
        tails.append(tail)
    memo: dict[tuple[int, ...], tuple] = {}  # alpha -> ((index in artin, coefficient), ...)
    names = [f"x{i}" for i in range(1, n + 1)]

    def reduce(alpha: tuple[int, ...]) -> tuple:
        i = next((i for i in range(n, 0, -1) if alpha[i - 1] > n - i), 0)
        if not i:
            nf = ((artin[alpha], 1),)
        else:
            base = alpha[: i - 1] + (alpha[i - 1] - n + i - 1,) + alpha[i:]
            acc: dict[int, Scalar] = {}
            for beta in tails[i - 1]:
                lower = tuple(map(add, base, beta))
                for k, c in memo[lower] if lower in memo else reduce(lower):
                    acc[k] = acc.get(k, 0) - c
            nf = tuple((k, c) for k, c in acc.items() if c)
        memo[alpha] = nf
        return nf

    def normal_form(f: LaurentPoly) -> list:
        row = [0] * len(artin)
        for alpha, c in exponent_vectors(f, names):
            for k, d in memo[alpha] if alpha in memo else reduce(alpha):
                row[k] += c * d
        return row

    return normal_form


def _cohomology_images(n: int) -> Iterator[tuple[Permutation, LaurentPoly]]:
    """(mu, Y_mu^s(x^delta)) for every mu in S_n, in window order: the image
    of mu is one :func:`_s_step` from that of mu s_j, j the first descent of
    mu (:func:`weak_order_walk`)."""
    staircase = LaurentPoly.monomial({f"x{i}": n - i for i in range(1, n)})
    return weak_order_walk(n, staircase, lambda f, nu, j: _s_step(f, j, nu(j), nu(j + 1), n))


def verify_cohomology_basis(n: int) -> CheckReport:
    """Images of the staircase monomial under Y_mu^s form a basis.

    With u_i = i, the operators Y_mu^s map x^delta = x_1^(n-1) x_2^(n-2) ...
    to a family that is a basis of Z[x]/I, I the ideal of the symmetric
    polynomials without constant term.  Two classic facts decide it without
    divided differences:

    * the h_{n-i+1}(x_1..x_i), i = 1..n, are a Groebner basis of I in lex
      order x_n > ... > x_1 (Sturmfels, *Algorithms in Invariant Theory*),
      so every class has one normal form in the Artin monomials x^alpha,
      alpha_i <= n - i, which are a basis of Z[x]/I (:func:`_normal_form`);
    * X_kappa(x, 0) is x^{code(kappa)} plus lex-lower terms, with
      coefficient 1 (Macdonald, *Notes on Schubert polynomials*).

    The n! table checks read the second fact off the table: X_kappa(x, 0)
    lies in the span of the Artin monomials and leads with x^{code(kappa)}
    and coefficient 1.  code is a bijection from S_n onto the Artin
    exponents, so the Schubert classes differ from the Artin basis by a
    unitriangular matrix, and the images' matrix is invertible over one
    basis exactly when it is over the other.  The matrix check therefore
    eliminates the normal forms.  The images are taken by the steps of
    :func:`_s_step`, which scale the row of mu by a nonzero integer, so the
    invertibility is unchanged.
    """
    report = CheckReport(name=f"cohomology-basis[n={n}]")
    table = schubert_table(n)
    names = [f"x{i}" for i in range(1, n + 1)]
    for kappa in all_permutations(n):
        entry = table.pop(kappa)  # the table is gone before the images are built
        for v in entry.variables():
            if var_parts(v)[0] == "y":
                entry = coefficients_in(entry, v).get(0, LaurentPoly.zero())
        terms = dict(exponent_vectors(entry, names))
        w = kappa.window
        code = tuple(sum(b < a for b in w[i:]) for i, a in enumerate(w, 1))
        lead = max(terms, key=lambda a: a[::-1], default=None)
        ok = lead == code and terms[lead] == 1 and all(
            e <= n - i for a in terms for i, e in enumerate(a, 1)
        )
        report.record(
            ok, lambda: f"X_{kappa}(x, 0) is not x^{code} plus lex-lower Artin monomials"
        )
    normal_form = _normal_form(n)
    rows = [normal_form(f) for _, f in _cohomology_images(n)]
    report.record(_invertible(rows), "coordinate matrix is singular")
    return report


def _invertible(rows) -> bool:
    """Whether a square matrix of exact scalars is invertible."""
    m = [[Fraction(c) for c in row] for row in rows]
    size = len(m)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] / pv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return True


def _cleared(p: LaurentPoly, v: str, w: LaurentPoly) -> LaurentPoly:
    """w^d p(v -> 1/w), d the top exponent of v in p: v^e becomes w^(d-e)."""
    parts = coefficients_in(p, v)
    d = max(parts)
    return sum_of_products((c, w ** (d - e)) for e, c in parts.items())


def verify_groth_to_schubert_degeneration(n: int) -> CheckReport:
    """Grothendieck entries degenerate to Schubert entries.

    Substituting x_i -> 1/(1 - a_i), y_j -> 1/(1 - b_j) into G_mu yields a
    rational function whose lowest homogeneous component (as a power series
    at a = b = 0) is X_mu(a, b).  The a variables are modeled by u_i and the
    b variables by y_j.  Each variable's denominator is cleared in turn by
    :func:`_cleared`, which multiplies the series by a power of 1 - a_i or
    1 - b_j, a series with constant term 1; so the polynomial left has the
    same lowest component, and no rational function or gcd is made.
    """
    report = CheckReport(name=f"degeneration[n={n}]")
    gtable = grothendieck_table(n)
    xtable = schubert_table(n)
    tou = {f"x{i}": f"u{i}" for i in range(1, n + 1)}
    clearing = {**tou, **{f"y{j}": f"y{j}" for j in range(1, n + 1)}}
    for mu in all_permutations(n):
        cleared = gtable[mu]
        for v, a in clearing.items():
            cleared = _cleared(cleared, v, 1 - LaurentPoly.variable(a))
        low = lowest_homogeneous_component(cleared, clearing.values())
        ok = low == rename_poly(xtable[mu], tou)
        report.record(ok, lambda: f"mu={mu}: lowest component mismatch")
    return report
