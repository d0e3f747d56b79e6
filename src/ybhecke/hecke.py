"""Abstract Hecke algebras of type A and their Yang-Baxter bases.

An algebra is generated by T_1..T_{n-1} subject to the braid relations and a
quadratic relation T_i^2 = a T_i + b, with the (a, b) of each family in
:data:`ybhecke.operators.FAMILIES`; the families in :data:`FACTOR_FAMILIES`
have Yang-Baxter elements.

Elements are finitely supported maps from permutations to coefficients,
which need only +, -, *, == and truth.  The ring of a coefficient is a
property of its value: a Laurent value is a LaurentPoly, from the spectral
parameters (the symbols u1..un, or a given tuple narrowed once by
:func:`_spectrum`) to the printed coefficient, and Python's reflected
operators promote it to a RationalFunction only where a division leaves a
denominator: at a spectral parameter such as 1 + u1, in the (q1, q2) form
of the generic family, in :func:`expand_in_yb`, and in :func:`pairing` away
from the symbols.  :func:`delta` returns its product as a RationalFunction.
So at the symbols every factor, product, pairing and non-generic
Yang-Baxter coefficient is a LaurentPoly.  Yang-Baxter elements are built
from the factors 1 + c(u, v) T_j by the recursion

    Y_mu(u) = Y_nu(u) * Y_j(u_{nu(j)}, u_{nu(j+1)})     for mu = nu s_j, longer,

with c as returned by :func:`factor_coefficient`.  At the symbols every
factor's coefficient has two terms (v - u, 1 - v/u or v/u - 1), so
``LaurentPoly.__mul__`` forms each product by it as two shifts.  The same
element also arises by reading the Rothe diagram of mu
(:func:`yb_element_rothe`).  Every such product is multiplied out by
:func:`yb_product`, or, for the whole basis, by :func:`iter_yb_basis`,
which yields the elements in window order
along :func:`~ybhecke.permutations.weak_order_walk`: Y_nu is built once for
all its children and kept only until its last child is built.
:func:`yb_basis` is that stream held in
:func:`~ybhecke.permutations.all_permutations` order, for the readers that
need every element at once; a reader that takes one Y_mu at a time (the
transition drivers, :func:`verify_rothe`) reads the stream.

The generic family is multiplied in its one-parameter form.  With
theta = q1+q2, the rescaled generators T'_j = T_j/theta satisfy

    T'_j^2 = T'_j - beta,     beta = q1*q2/theta^2,

and the factor 1 + (v/u - 1)/theta T_j is 1 + (v/u - 1) T'_j.  So the
coefficient of T_nu in Y_mu is theta^-l(nu) P(beta), with P a polynomial in
beta; at the symbols u1..un (or numbers) it is a Laurent polynomial in u, so
no denominator appears while the element is built and no gcd is taken.
Each P = sum_j P_j beta^j of degree K is homogenised once, where the
coefficient leaves the library, into

    sum_j P_j (q1*q2)^j theta^(2K-2j) / theta^(2K+l(nu)),

which at the symbols is born normal.  It is reduced, since modulo theta its
numerator is P_K (q1*q2)^K, and theta^k is a normal denominator as it
stands: q1 and q2 both have minimum exponent 0 in it, its content is 1
(C(k, 0) = 1) and every coefficient is positive.  So it is made by the
trusted ``RationalFunction._normal``, which skips the normalisation.
:func:`gram_matrix` pairs in the same form and homogenises each pairing
once.  The factor coefficient (v/u - 1)/theta and Delta = prod_{i<j}
(u_j/u_i - 1)/theta^l(omega) are converted by :func:`_from_beta` too, from
their one-parameter values v/u - 1 and prod_{i<j} (u_j/u_i - 1), so every
generic-family quotient has one route to (q1, q2).  It is gcd-reduced
exactly where the spectral parameters mention q1 or q2.  The carrier of
beta is the internal variable ``poly.BETA``; spectral parameters of family
T may not mention it, and no returned coefficient does.

The bilinear form pairs h1, h2 into the coefficient of T_omega in
h1 * phi(h2), where phi is the anti-automorphism T_mu -> T_{mu^{-1}},
u_i -> u_{n+1-i}.  The Yang-Baxter basis is orthogonal for it:
<Y_mu, Y_nu> = Delta(u^{mu omega}) delta_{nu, omega mu} with Delta as in
:func:`delta`.  Every pairing is read off the omega-row of h1, the values
M[kappa] = [T_omega](h1 * T_kappa) from :func:`_omega_row`; by linearity
[T_omega](h1 * g) = sum_kappa g_kappa M[kappa], with no polynomial per
product or partial sum.  In the group algebra (sigma, T_i^2 = 1) and the
nil-Coxeter algebra (partial, T_i^2 = 0) the structure constants are
[T_omega](T_kappa T_b) = delta_{b, kappa^-1 omega}, because omega = kappa b
always has l(kappa) + l(b) = l(omega); so the row of h1 is its coefficients
relabelled, and no product is taken.  The other families walk h1 to the
right along the weak order, as the basis is built.  :func:`pairing` and
:func:`expand_in_yb` pair a row with one g by :func:`_pair`;
:func:`gram_matrix` pairs every row with every phi(Y_nu); its docstring
says which route serves which spectral tuple.  Every Delta(u^pi) is read
from one table of the factor coefficients c(u_a, u_b) (:func:`_deltas`).

The paper's four facts about a family's Yang-Baxter basis are checked by
the drivers :func:`verify_ybe`, :func:`verify_word_independence`,
:func:`verify_rothe` and :func:`verify_orthogonality`, one report each.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    AlgebraMismatch,
    DegenerateSpectrum,
    IndexOutOfRange,
    RankMismatch,
    ReservedVariable,
    ZeroSpectral,
)
from .operators import FAMILIES, apply_word
from .permutations import Permutation, all_permutations, rothe_diagram, weak_order_walk
from .poly import (
    BETA,
    LaurentPoly,
    RationalFunction,
    as_rf,
    clear_beta,
    narrow,
    rename_poly,
    rename_rf,
    sum_of_products,
    sums_of_products,
)
from .report import CheckReport

__all__ = [
    "FACTOR_FAMILIES",
    "AlgebraSpec",
    "HeckeElement",
    "algebra",
    "basis_element",
    "unit",
    "factor_coefficient",
    "elementary_factor",
    "symbolic_spectral",
    "permuted_spectral",
    "word_steps",
    "yb_product",
    "yb_element",
    "yb_basis",
    "iter_yb_basis",
    "yb_element_rothe",
    "phi",
    "pairing",
    "delta",
    "gram_matrix",
    "orthogonality_violations",
    "expand_in_yb",
    "apply_to_polynomial",
    "verify_ybe",
    "verify_word_independence",
    "verify_rothe",
    "verify_orthogonality",
]

Coefficient = LaurentPoly | RationalFunction
_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()
# The families with an elementary factor 1 + c(u, v) T_j.
FACTOR_FAMILIES = ("sigma", "partial", "pibar", "T")
# The family tag of the generic family's one-parameter form; only
# _spectrum makes such an algebra, and no element of it is returned.
_BETA_FORM = "T'"
# The families whose factors divide by a spectral parameter.
_MULTIPLICATIVE = ("pibar", "T", _BETA_FORM)


class AlgebraSpec(NamedTuple):
    """Family tag, rank and quadratic parameters."""

    family: str
    n: int
    a: LaurentPoly
    b: LaurentPoly

    def __repr__(self) -> str:
        return f"AlgebraSpec({self.family!r}, n={self.n})"


def algebra(family: str, n: int) -> AlgebraSpec:
    if family not in FAMILIES:
        raise ValueError(f"unknown algebra family {family!r}")
    a, b = FAMILIES[family]
    return AlgebraSpec(family=family, n=n, a=a, b=b)


class HeckeElement:
    """A finitely supported combination of basis elements T_mu with LaurentPoly
    coefficients, or RationalFunction ones where the module docstring says."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: AlgebraSpec, coeffs: Mapping[Permutation, Coefficient]):
        self.alg = alg
        self.coeffs = {mu: c for mu, c in coeffs.items() if c}

    # ------------------------------------------------------------------

    def coefficient(self, mu: Permutation) -> Coefficient:
        return self.coeffs.get(mu, _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self.alg != other.alg or self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(c == other.coeffs[mu] for mu, c in self.coeffs.items())

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{mu}: {c}" for mu, c in sorted(
            self.coeffs.items(), key=lambda it: it[0].sort_key()))
        return f"HeckeElement[{self.alg.family}]({{{body}}})"

    # ------------------------------------------------------------------

    def _check(self, other: "HeckeElement") -> None:
        if self.alg != other.alg:
            raise AlgebraMismatch(f"{self.alg} vs {other.alg}")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._check(other)
        out = dict(self.coeffs)
        for mu, c in other.coeffs.items():
            _acc(out, mu, c)
        return HeckeElement(self.alg, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.alg, {mu: -c for mu, c in self.coeffs.items()})

    def scale(self, c) -> "HeckeElement":
        return HeckeElement(self.alg, {mu: x * c for mu, x in self.coeffs.items()})

    def times_generator(self, j: int) -> "HeckeElement":
        """Right multiplication by T_j in the T_mu basis."""
        n = self.alg.n
        if not 1 <= j <= n - 1:
            raise IndexOutOfRange(f"generator index {j} outside 1..{n - 1}")
        a, b = self.alg.a, self.alg.b
        out: dict[Permutation, Coefficient] = {}
        for mu, c in self.coeffs.items():
            msj = mu.times_simple(j)
            if mu.window[j - 1] < mu.window[j]:  # length goes up
                _acc(out, msj, c)
            else:
                if a:
                    _acc(out, mu, c * a)
                if b:
                    _acc(out, msj, c * b)
        return HeckeElement(self.alg, out)

    def generator_times(self, j: int) -> "HeckeElement":
        """Left multiplication by T_j: the anti-automorphism :func:`_inverted`
        turns it into right multiplication."""
        return _inverted(_inverted(self).times_generator(j))

    def __mul__(self, other):
        """The product of two elements; a scalar multiple is :meth:`scale`."""
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        total = HeckeElement(self.alg, {})
        for nu, c in other.coeffs.items():
            h = self
            for j in nu.reduced_word():
                h = h.times_generator(j)
            total = total + (h if c == 1 else h.scale(c))
        return total


def _acc(out: dict, mu: Permutation, c: Coefficient) -> None:
    old = out.get(mu)
    out[mu] = c if old is None else old + c


def _inverted(h: HeckeElement) -> HeckeElement:
    """The anti-automorphism T_mu -> T_{mu^{-1}} that fixes coefficients."""
    return HeckeElement(h.alg, {mu.inverse(): c for mu, c in h.coeffs.items()})


def unit(alg: AlgebraSpec) -> HeckeElement:
    return HeckeElement(alg, {Permutation.identity(alg.n): _ONE})


def basis_element(alg: AlgebraSpec, mu: Permutation) -> HeckeElement:
    _check_rank(alg, mu)
    return HeckeElement(alg, {mu: _ONE})


def _check_rank(alg: AlgebraSpec, mu: Permutation) -> None:
    if mu.n != alg.n:
        raise RankMismatch(f"permutation {mu} is not in S_{alg.n}")


# ----------------------------------------------------------------------
# spectral parameters and elementary factors


def symbolic_spectral(n: int) -> list[LaurentPoly]:
    """The symbols u1..un, the default spectral parameters, as LaurentPolys."""
    return [LaurentPoly.variable(f"u{i}") for i in range(1, n + 1)]


def permuted_spectral(u: Sequence[Coefficient], mu: Permutation) -> list[Coefficient]:
    """The permuted tuple u^mu = (u_{mu(1)}, ..., u_{mu(n)})."""
    return [u[mu(i) - 1] for i in range(1, mu.n + 1)]


def factor_coefficient(alg: AlgebraSpec, u: Coefficient, v: Coefficient) -> Coefficient:
    """The coefficient c(u, v) of T_j in the elementary factor 1 + c T_j.

    u and v are narrowed, and v - u, or v/u as v * u^-1 where u is a
    LaurentPoly monomial, is taken by the operators of their rings and
    narrowed: the result is a LaurentPoly exactly when it is a Laurent
    polynomial, and a RationalFunction where a division leaves a
    denominator, as at 1 + u1.  The generic family's coefficient is its
    one-parameter value v/u - 1 over theta, made by :func:`_from_beta` and
    narrowed in the same way.
    """
    family = alg.family
    if family not in FACTOR_FAMILIES and family != _BETA_FORM:
        raise ValueError(
            f"no elementary Yang-Baxter factor for family {family!r}; "
            f"supported: {FACTOR_FAMILIES}"
        )
    u, v = narrow(u), narrow(v)
    if family not in _MULTIPLICATIVE:
        return narrow(v - u)
    if u.is_zero:
        raise ZeroSpectral(f"{family} factors need an invertible first parameter")
    ratio = v * u ** -1 if isinstance(u, LaurentPoly) and u.is_unit else narrow(v / u)
    if family == "pibar":
        return 1 - ratio
    if family == _BETA_FORM:
        return ratio - 1
    return narrow(_from_beta(ratio - 1, 1, _mentions_q((u, v))))


def elementary_factor(
    alg: AlgebraSpec, j: int, u: Coefficient, v: Coefficient
) -> HeckeElement:
    """The element 1 + c(u, v) T_j, with c as :func:`factor_coefficient`
    gives it: a LaurentPoly whenever it is one."""
    s_j = Permutation.simple(alg.n, j)
    c = factor_coefficient(alg, u, v)
    return HeckeElement(alg, {Permutation.identity(alg.n): _ONE, s_j: c})


def _spectrum(
    alg: AlgebraSpec, u: Sequence[Coefficient] | None
) -> tuple[Sequence[Coefficient], AlgebraSpec, bool]:
    """(u, build, reduce): the spectral parameters of ``alg``, checked, the
    algebra its factors are multiplied in, and whether :func:`_from_beta`
    must gcd-reduce the coefficients built there.

    ``u`` is the symbols u1..un when None is given, and otherwise each given
    parameter narrowed once, so a Laurent value is a LaurentPoly from here
    on; an int or a Fraction becomes a constant, and any other scalar raises
    TypeError.  For the generic family ``build`` is the one-parameter form
    T'_j^2 = T'_j - beta, and ``reduce`` holds where ``u`` mentions q1 or
    q2; every other family builds in ``alg`` and does not reduce."""
    build = alg
    if alg.family == "T":
        build = AlgebraSpec(_BETA_FORM, alg.n, _ONE, -LaurentPoly.variable(BETA))
    if u is None:
        return symbolic_spectral(alg.n), build, False
    if len(u) != alg.n:
        raise RankMismatch(f"need {alg.n} spectral parameters, got {len(u)}")
    u = [narrow(x) if isinstance(x, (LaurentPoly, RationalFunction))
         else LaurentPoly.constant(x) for x in u]
    if alg.family in _MULTIPLICATIVE and any(x.is_zero for x in u):
        raise ZeroSpectral("multiplicative families need nonzero parameters")
    return u, build, alg.family == "T" and _mentions_q(u)


def _mentions_q(u: Sequence[Coefficient]) -> bool:
    """Whether family T spectral parameters mention q1 or q2; a mention of
    ``BETA``, which :func:`_from_beta` would read as beta, raises."""
    names = set().union(*(x.num.variables() | x.den.variables() for x in map(as_rf, u)))
    if BETA in names:
        raise ReservedVariable(f"family T spectral parameters must not mention {BETA}")
    return not names.isdisjoint(("q1", "q2"))


def _from_building(alg: AlgebraSpec, h: HeckeElement, reduce: bool) -> HeckeElement:
    """An element of ``alg`` from its image in the building algebra of
    :func:`_spectrum`.

    In the generic family each coefficient of T'_nu becomes the coefficient
    of T_nu = theta^l(nu) T'_nu by :func:`_from_beta`, gcd-reduced when
    ``reduce`` (see :func:`_spectrum`); elsewhere ``h`` is returned as it is.
    """
    if alg.family != "T":
        return h
    return HeckeElement(
        alg, {nu: _from_beta(c, nu.length(), reduce) for nu, c in h.coeffs.items()}
    )


@cache
def _theta_power(k: int) -> LaurentPoly:
    return (LaurentPoly.variable("q1") + LaurentPoly.variable("q2")) ** k


def _from_beta(c: Coefficient, length: int, reduce: bool) -> RationalFunction:
    """The coefficient of a generic-family T_nu, l(nu) = ``length``, whose
    T'_nu coefficient is ``c`` = P(beta) / D, of degree K in beta.

    With theta = q1+q2 that is N / (D theta^(2K+l(nu))), N from
    :func:`ybhecke.poly.clear_beta`; a coefficient free of beta keeps its
    numerator.  Where D = 1 and not ``reduce`` (at the symbols u1..un, say)
    the quotient is born normal, so it is made by the trusted
    ``RationalFunction._normal``: theta^k has no monomial factor, content 1
    and a positive leading coefficient, so normalising it changes nothing,
    and modulo theta N is P_K (q1 q2)^K, so the quotient is reduced.  That
    needs the P_j free of q1 and q2.  Where they are not (``reduce``, the
    spectral parameters mention q1 or q2) the quotient is gcd-reduced, and
    a denominator D != 1 (a rational spectral parameter such as 1 + u1) is
    normalised.
    """
    c = as_rf(c)
    num, top = clear_beta(c.num)
    theta = _theta_power(2 * top + length)
    if c.is_polynomial and not reduce:
        return RationalFunction._normal(num, theta)
    f = RationalFunction(num, c.den * theta)
    return f.simplify() if reduce else f


def word_steps(n: int, word: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The steps (j, a, b) of :func:`yb_product` that build Y along ``word``:
    the factor at generator j joins u_{nu(j)} and u_{nu(j+1)}, where nu is
    the product of the letters before it."""
    nu = Permutation.identity(n)
    for j in word:
        if not 1 <= j <= n - 1:
            raise IndexOutOfRange(f"generator index {j} outside 1..{n - 1}")
        yield j, nu(j), nu(j + 1)
        nu = nu.times_simple(j)


def yb_product(
    alg: AlgebraSpec,
    u: Sequence[Coefficient] | None,
    steps: Iterable[tuple[int, int, int]],
) -> HeckeElement:
    """The product, left to right, of the factors Y_j(u_a, u_b) = 1 + c T_j
    over the steps (j, a, b), at the symbols u1..un when ``u`` is None.

    Every Yang-Baxter element is multiplied out here, or in
    :func:`iter_yb_basis` with the same two conversions, so the generic
    family always takes its one-parameter form.
    """
    u, build, reduce = _spectrum(alg, u)
    h = unit(build)
    for j, a, b in steps:
        h = h * elementary_factor(build, j, u[a - 1], u[b - 1])
    return _from_building(alg, h, reduce)


def yb_element(
    alg: AlgebraSpec,
    mu: Permutation,
    u: Sequence[Coefficient] | None = None,
) -> HeckeElement:
    """The Yang-Baxter element Y_mu(u), built along the canonical reduced word."""
    _check_rank(alg, mu)
    return yb_product(alg, u, word_steps(alg.n, mu.reduced_word()))


def iter_yb_basis(
    alg: AlgebraSpec, u: Sequence[Coefficient] | None = None
) -> Iterator[tuple[Permutation, HeckeElement]]:
    """(mu, Y_mu) for every mu in S_n, in window (lexicographic) order,
    sharing the recursion along the weak order.

    :func:`~ybhecke.permutations.weak_order_walk` builds Y_mu as Y_nu times
    the factor of the first descent j of mu, nu = mu s_j.  The spectral
    parameters and the rank are checked before the first element.
    """
    u, build, reduce = _spectrum(alg, u)

    def step(h: HeckeElement, nu: Permutation, j: int) -> HeckeElement:
        return h * elementary_factor(build, j, u[nu(j) - 1], u[nu(j + 1) - 1])

    walk = weak_order_walk(alg.n, unit(build), step)
    return ((mu, _from_building(alg, h, reduce)) for mu, h in walk)


def yb_basis(
    alg: AlgebraSpec, u: Sequence[Coefficient] | None = None
) -> dict[Permutation, HeckeElement]:
    """All Y_mu at once, keyed in :func:`all_permutations` order: the
    elements of :func:`iter_yb_basis`, which holds fewer at a time."""
    built = dict(iter_yb_basis(alg, u))
    return {mu: built[mu] for mu in all_permutations(alg.n)}


def yb_element_rothe(
    alg: AlgebraSpec,
    mu: Permutation,
    u: Sequence[Coefficient] | None = None,
) -> HeckeElement:
    """Y_mu(u) as the reading of the Rothe diagram of mu.

    The box produced by the inversion (i, j) carries the elementary factor
    Y_k(u_{mu(j)}, u_{mu(i)}) at the box's generator index k, and the
    occidental reading (top row first, left to right) multiplies out to the
    same element as the recursion.
    """
    _check_rank(alg, mu)
    boxes = rothe_diagram(mu)
    return yb_product(alg, u, ((b.generator, mu(b.j), mu(b.i)) for b in boxes))


# ----------------------------------------------------------------------
# the bilinear form


def phi(h: HeckeElement) -> HeckeElement:
    """The anti-automorphism T_mu -> T_{mu^{-1}}, u_i -> u_{n+1-i}.

    The reversal renames the symbols u1..un inside each coefficient, so it
    is only right for elements built at those symbols; :func:`pairing` with
    ``u``, :func:`gram_matrix` and :func:`expand_in_yb` handle any other
    spectral parameters.
    """
    rho = _reversal(h.alg.n)
    return _inverted(HeckeElement(h.alg, {mu: rho(c) for mu, c in h.coeffs.items()}))


def _reversal(n: int) -> Callable[[Coefficient], Coefficient]:
    """rho: c -> c with each symbol u_i renamed u_{n+1-i}, in the ring of c."""
    rev = {f"u{i}": f"u{n + 1 - i}" for i in range(1, n + 1) if i != n + 1 - i}
    return lambda c: (rename_poly if isinstance(c, LaurentPoly) else rename_rf)(c, rev)


def _at_symbols(u: Sequence[Coefficient] | None, n: int) -> bool:
    """Whether ``u`` is the symbols u1..un, where phi reverses the spectral
    parameters by renaming them."""
    return u is None or list(u) == symbolic_spectral(n)


def _phi_of_basis(
    alg: AlgebraSpec, u: Sequence[Coefficient]
) -> dict[Permutation, HeckeElement]:
    """phi(Y_nu(u)) for every nu: Y_nu built at the reversed tuple, with
    its indices inverted.

    phi reverses the spectral parameters, so this holds at any tuple; at
    the symbols u1..un it equals :func:`phi` on Y_nu(u) term for term.
    """
    return {nu: _inverted(y) for nu, y in yb_basis(alg, list(u)[::-1]).items()}


def _omega_row(h: HeckeElement) -> dict[Permutation, Coefficient]:
    """The nonzero values [T_omega](h * T_kappa), keyed by kappa.

    Where T_i^2 is 1 or 0 (sigma and partial), T_mu * T_kappa is T_{mu kappa}
    whenever l(mu kappa) = l(mu) + l(kappa), and every factorisation
    omega = mu kappa has that, since l(omega kappa^-1) = l(omega) - l(kappa).
    So row[kappa] = h(omega kappa^-1): the row relabels the coefficients of
    h, and kappa = mu^-1 omega for each of its terms c T_mu.

    Any other algebra builds h * T_kappa = (h * T_{kappa s_j}) * T_j, j the
    first descent of kappa, along :func:`~ybhecke.permutations.weak_order_walk`,
    which holds at most 36 of the products at n = 5 (216 at n = 6).
    """
    alg = h.alg
    omega = Permutation.longest(alg.n)
    if not alg.a and (not alg.b or alg.b == 1):
        return {mu.inverse() * omega: c for mu, c in h.coeffs.items()}
    walk = weak_order_walk(alg.n, h, lambda g, nu, j: g.times_generator(j))
    return {kappa: c for kappa, g in walk if (c := g.coefficient(omega))}


def _pair(g: HeckeElement, row: Mapping[Permutation, Coefficient]) -> Coefficient:
    """[T_omega](h * g) for ``row`` = ``_omega_row(h)``: the product is
    linear in g, so it is sum_kappa g_kappa row[kappa].

    Where every factor is a LaurentPoly (at the symbols, or at numbers) the
    sum is accumulated once by :func:`~ybhecke.poly.sum_of_products`; a
    RationalFunction factor sums the products one by one.
    """
    products = [(c, row[kappa]) for kappa, c in g.coeffs.items() if kappa in row]
    if all(isinstance(c, LaurentPoly) and isinstance(r, LaurentPoly) for c, r in products):
        return sum_of_products(products)
    return sum((c * r for c, r in products), _ZERO)


def pairing(
    h1: HeckeElement,
    h2: HeckeElement,
    u: Sequence[Coefficient] | None = None,
) -> Coefficient:
    """The coefficient of T_omega in h1 * phi(h2), phi reversing ``u``,
    read from the one row :func:`_omega_row` of h1.

    At the symbols u1..un (the default) that is :func:`phi` on h2.  At any
    other tuple, where renaming the symbols does nothing, h2 is expanded as
    sum_nu c_nu Y_nu(u) and phi(h2) is sum_nu c_nu phi(Y_nu(u)).
    """
    h1._check(h2)
    alg = h1.alg
    row = _omega_row(h1)
    if _at_symbols(u, alg.n):
        return _pair(phi(h2), row)
    phis = _phi_of_basis(alg, u)
    total = _ZERO
    for nu, c in _expand(h2, u, phis).items():
        total = total + c * _pair(phis[nu], row)
    return total


def delta(
    alg: AlgebraSpec, u: Sequence[Coefficient] | None = None
) -> RationalFunction:
    """The normalizing factor prod_{i<j} c(u_i, u_j) of the orthogonality law,
    as a RationalFunction: :func:`_deltas` at the identity.

    For the generic family this is prod_{i<j} (u_j/u_i - 1)/(q1+q2); the
    other families use their own elementary coefficients.
    """
    return _deltas(alg, *_spectrum(alg, u))(Permutation.identity(alg.n))


def _deltas(
    alg: AlgebraSpec, u: Sequence[Coefficient], build: AlgebraSpec, reduce: bool
) -> Callable[[Permutation], RationalFunction]:
    """pi -> Delta(u^pi) = prod_{i<j} c(u_{pi(i)}, u_{pi(j)}), with ``u``,
    ``build`` and ``reduce`` from :func:`_spectrum`, read from one table of
    the n(n-1) coefficients c(u_a, u_b), a != b, of ``build``, made once.
    They are multiplied as they come, so the product stays a LaurentPoly
    until a factor with a denominator promotes it; the generic family's is
    converted once, over theta^l(omega), by :func:`_from_beta`.
    """
    n = alg.n
    c = {(a, b): factor_coefficient(build, u[a - 1], u[b - 1])
         for a in range(1, n + 1) for b in range(1, n + 1) if a != b}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def at(pi: Permutation) -> RationalFunction:
        total = _ONE
        for i, j in pairs:
            total = total * c[pi(i), pi(j)]
        return as_rf(total) if build is alg else _from_beta(total, len(pairs), reduce)

    return at


def gram_matrix(
    alg: AlgebraSpec, u: Sequence[Coefficient] | None = None
) -> dict[tuple[Permutation, Permutation], Coefficient]:
    """All pairings <Y_mu, Y_nu> at once, keyed nu-major.

    Each Y_mu gets one row :func:`_omega_row`, and no product of two
    elements is taken.  At the symbols u1..un the form is rho-symmetric,
    rho renaming u_i to u_{n+1-i}: phi is an involutive anti-automorphism,
    omega^-1 = omega and [T_omega] phi(h) = rho([T_omega] h), so

        <h2, h1> = [T_omega](h2 phi(h1)) = [T_omega] phi(h1 phi(h2)) = rho(<h1, h2>).

    There the rows are taken from last to first in
    :func:`~ybhecke.permutations.all_permutations` order, phi(Y_mu) joins
    an index kappa -> [(column, phi(Y_nu) at kappa)] just before row mu,
    and :func:`~ybhecke.poly.sums_of_products` accumulates the columns nu at
    or after mu at once; <Y_nu, Y_mu> is rho(<Y_mu, Y_nu>).  The long rows,
    which come last, meet few columns.  Every coefficient there is a
    LaurentPoly, and for n <= :data:`~ybhecke.permutations.MAX_RANK` no
    exponent nears the kernel's range.  At any other tuple phi reverses the
    tuple, not the symbols, so <Y_nu, Y_mu>(u) = <Y_mu, Y_nu>(reversed u) is
    another matrix, and each entry is paired by :func:`_pair`, row by row in
    mu order.

    The generic family is paired in its one-parameter form, where no
    coefficient has a denominator at the symbols u1..un and no gcd is
    taken: T_mu = theta^l(mu) T'_mu identifies the two forms, and phi
    respects it, so each pairing is the coefficient of T'_omega converted
    once by :func:`_from_beta`, gcd-reduced where ``u`` mentions q1 or q2.
    rho fixes q1, q2 and beta, so the mirror is taken in that form.

    >>> [str(c) for c in gram_matrix(algebra("partial", 2)).values()]
    ['0', '-u1 + u2', 'u1 - u2', '0']
    """
    symbols = _at_symbols(u, alg.n)
    u, build, reduce = _spectrum(alg, u)
    ys, phis = yb_basis(build, u), _phi_of_basis(build, u)
    out = dict.fromkeys((mu, nu) for nu in phis for mu in ys)
    if symbols:
        rho = _reversal(alg.n)
        index: dict[Permutation, list[tuple[int, LaurentPoly]]] = {}
        columns: list[Permutation] = []
        for mu in reversed(ys):
            for kappa, c in phis[mu].coeffs.items():
                index.setdefault(kappa, []).append((len(columns), c))
            columns.append(mu)
            row = _omega_row(ys[mu])
            operands = ((r, index[kappa]) for kappa, r in row.items() if kappa in index)
            for nu, c in zip(columns, sums_of_products(operands, len(columns))):
                out[mu, nu] = c
                if nu != mu:
                    # nearly every entry is 0 by the orthogonality law, and rho fixes 0
                    out[nu, mu] = rho(c) if c else c
    else:
        for mu, y in ys.items():
            row = _omega_row(y)
            for nu, g in phis.items():
                out[mu, nu] = _pair(g, row)
    if build is alg:
        return out
    length = Permutation.longest(alg.n).length()
    return {pair: _from_beta(c, length, reduce) for pair, c in out.items()}


def orthogonality_violations(
    alg: AlgebraSpec,
    gram: Mapping[tuple[Permutation, Permutation], Coefficient],
    u: Sequence[Coefficient] | None = None,
) -> dict[tuple[Permutation, Permutation], Coefficient]:
    """The entries of ``gram`` (as from :func:`gram_matrix` at ``u``) that
    break <Y_mu, Y_nu> = Delta(u^{mu omega}) delta_{nu, omega mu}, in the
    order of ``gram``; every Delta comes from :func:`_deltas`."""
    delta_at = _deltas(alg, *_spectrum(alg, u))
    omega = Permutation.longest(alg.n)
    partner: dict[Permutation, Permutation] = {}
    bad = {}
    for (mu, nu), val in gram.items():
        if (p := partner.get(mu)) is None:
            p = partner[mu] = omega * mu
        if nu == p:
            ok = val == delta_at(mu * omega)
        else:
            ok = not val
        if not ok:
            bad[(mu, nu)] = val
    return bad


def expand_in_yb(
    h: HeckeElement, u: Sequence[Coefficient] | None = None
) -> dict[Permutation, RationalFunction]:
    """Coefficients c_mu with h = sum_mu c_mu Y_mu(u).

    Each coefficient is <h, Y_{omega mu}> / Delta(u^{mu omega}), matching the
    orthogonality law <Y_mu, Y_nu> = Delta(u^{mu omega}) delta_{nu, omega mu};
    the spectral parameters must keep every Delta nonzero.
    """
    u = _spectrum(h.alg, u)[0]
    return _expand(h, u, _phi_of_basis(h.alg, u))


def _expand(
    h: HeckeElement,
    u: Sequence[Coefficient],
    phis: Mapping[Permutation, HeckeElement],
) -> dict[Permutation, RationalFunction]:
    """:func:`expand_in_yb` with ``phis`` = ``_phi_of_basis(h.alg, u)``:
    every <h, Y_{omega mu}> is read from the one row :func:`_omega_row` of h,
    and every Delta(u^{mu omega}) from :func:`_deltas`."""
    alg = h.alg
    omega = Permutation.longest(alg.n)
    row = _omega_row(h)
    delta_at = _deltas(alg, *_spectrum(alg, u))
    out: dict[Permutation, RationalFunction] = {}
    for mu in all_permutations(alg.n):
        d = delta_at(mu * omega)
        if d.is_zero:
            raise DegenerateSpectrum(f"Delta(u^({mu}*omega)) = 0")
        c = _pair(phis[omega * mu], row) / d
        if not c.is_zero:
            out[mu] = c
    return out


def apply_to_polynomial(h: HeckeElement, f: LaurentPoly) -> Coefficient:
    """Realize ``h`` through the operator family and apply it to ``f``:
    the sum of c_mu D_mu f over the terms c_mu T_mu of ``h``.

    Basis elements act along their reduced words with the first generator
    applied first, making the polynomial ring a right module: applying
    h1 * h2 equals applying h1, then h2.  Coefficients must not involve the
    x variables.  For LaurentPoly coefficients the image is a LaurentPoly,
    which can be acted on again.
    """
    total = _ZERO
    for mu, c in h.coeffs.items():
        image = apply_word(h.alg.family, mu.reduced_word(), f, h.alg.n)
        total = total + c * image
    return total


# ----------------------------------------------------------------------
# verification drivers


def verify_ybe(alg: AlgebraSpec) -> CheckReport:
    """Y_1(u, v) Y_2(u, w) Y_1(v, w) = Y_2(v, w) Y_1(u, w) Y_2(u, v): Y_321
    of S_3 is the same along its two reduced words 121 and 212, each side
    multiplied out by :func:`yb_product` from :func:`word_steps`; family T
    in its building algebra as in :func:`verify_word_independence`."""
    report = CheckReport(name=f"ybe[{alg.family}]")
    build = _spectrum(alg, None)[1]
    lhs, rhs = (yb_product(build, None, word_steps(alg.n, w)) for w in ((1, 2, 1), (2, 1, 2)))
    report.record(lhs == rhs, "Yang-Baxter equation fails")
    return report


def verify_word_independence(alg: AlgebraSpec) -> CheckReport:
    """One check per mu: Y_mu is the same along every reduced word of mu.

    Every reduced word of mu ends in a descent j of mu, after a reduced word
    of nu = mu s_j, and :func:`word_steps` gives that last letter the factor
    Y_j(u_{nu(j)}, u_{nu(j+1)}).  So if Y_nu * Y_j(...) equals Y_mu at every
    descent j, induction on the length of mu gives the same Y_mu along every
    reduced word.  :func:`yb_basis` builds Y_mu at the first descent, so
    only the others are multiplied.  Family T is compared in its
    one-parameter building algebra: T'_j -> T_j/theta is an injective map of
    algebras that sends each factor there to the (q1, q2) factor, so
    equality there is the same statement.
    """
    report = CheckReport(name=f"word-independence[{alg.family}, n={alg.n}]")
    u, build, _ = _spectrum(alg, None)
    ys = yb_basis(build, u)

    def last_letter_agrees(mu: Permutation, j: int) -> bool:
        nu = mu.times_simple(j)
        return ys[nu] * elementary_factor(build, j, u[nu(j) - 1], u[nu(j + 1) - 1]) == ys[mu]

    for mu in all_permutations(alg.n):
        report.record(
            all(last_letter_agrees(mu, j) for j in mu.descents()[1:]),
            lambda: f"mu={mu}: reduced words disagree",
        )
    return report


def verify_rothe(alg: AlgebraSpec) -> CheckReport:
    """One check per mu: :func:`yb_element_rothe` gives the Y_mu of
    :func:`iter_yb_basis`; family T in its building algebra as in
    :func:`verify_word_independence`.  The checks are recorded in
    :func:`~ybhecke.permutations.all_permutations` order."""
    report = CheckReport(name=f"rothe[{alg.family}, n={alg.n}]")
    build = _spectrum(alg, None)[1]
    same = {mu: yb_element_rothe(build, mu) == y for mu, y in iter_yb_basis(build)}
    for mu in all_permutations(alg.n):
        report.record(same[mu], lambda: f"mu={mu}: rothe product differs")
    return report


def verify_orthogonality(alg: AlgebraSpec) -> CheckReport:
    """One check per pairing <Y_mu, Y_nu> at the symbols u1..un."""
    report = CheckReport(name=f"orthogonality[{alg.family}, n={alg.n}]")
    g = gram_matrix(alg)
    bad = orthogonality_violations(alg, g)
    for mu, nu in g:
        report.record(
            (mu, nu) not in bad, lambda: f"<Y_{mu}, Y_{nu}> = {bad[(mu, nu)]}"
        )
    return report
