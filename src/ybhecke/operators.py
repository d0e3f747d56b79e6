"""The six operator families acting on Laurent polynomials in the x variables.

These realize the abstract algebras faithfully and serve as the ground truth
for every identity proved at the level of Hecke elements:

* ``sigma_i`` exchanges x_i and x_{i+1},
* ``partial_i`` is the divided difference (f - sigma_i f)/(x_i - x_{i+1}),
* ``s_i = sigma_i + partial_i``,
* ``pi_i f = partial_i(x_i f)`` (isobaric divided difference),
* ``pibar_i = pi_i - 1``,
* ``t_i = -(q1+q2) pibar_i + q2 sigma_i``.

The ring is :class:`~ybhecke.poly.LaurentPoly` throughout: a divided
difference of a Laurent polynomial is a Laurent polynomial, and every
operator coefficient (q1, q2, or the values passed for them) must be free
of x, so it commutes with the operators and no denominator appears.

Words act with the first listed generator applied first (a right action of
the algebra on the polynomial ring); ``apply_inverse_word`` composes in the
classical operator order instead: for mu = s_{a1} ... s_{ak} reduced,
D_mu = D_{a1} o ... o D_{ak}, so the last letter acts first and

    D_{mu s_j} = D_mu o D_j     (D_j first) whenever l(mu s_j) > l(mu),
    D_mu = D_i o D_{s_i mu}     (D_{s_i mu} first) for a left descent i of mu.

``all_inverse_words`` builds every D_mu f by the second rule, one generator
per permutation, walking kappa = mu^-1 by
:func:`~ybhecke.permutations.weak_order_walk`, as s_i mu = (kappa s_i)^-1.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import IndexOutOfRange
from .permutations import Permutation, all_permutations, weak_order_walk
from .poly import LaurentPoly, divided_difference, rename_poly
from .report import CheckReport

__all__ = [
    "FAMILIES",
    "apply_generator",
    "apply_word",
    "apply_inverse_word",
    "all_inverse_words",
    "check_relations",
    "random_probe",
]

_Q1 = LaurentPoly.variable("q1")
_Q2 = LaurentPoly.variable("q2")
_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()

# Each family's generators satisfy the braid relations and the quadratic
# relation T_i^2 = a T_i + b; this maps the family to (a, b).
FAMILIES = {
    "sigma": (_ZERO, _ONE),
    "partial": (_ZERO, _ZERO),
    "s": (_ZERO, _ONE),
    "pi": (_ONE, _ZERO),
    "pibar": (-_ONE, _ZERO),
    "T": (_Q1 + _Q2, -(_Q1 * _Q2)),
}


def apply_generator(family: str, i: int, f: LaurentPoly, n: int) -> LaurentPoly:
    """Apply the i-th generator of the given family to ``f``, the T family at
    the formal parameters q1, q2."""
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"generator index {i} outside 1..{n - 1}")
    a, b = f"x{i}", f"x{i + 1}"
    if family == "sigma":
        return rename_poly(f, {a: b, b: a})
    if family == "partial":
        return divided_difference(f, a, b)
    if family == "s":
        return rename_poly(f, {a: b, b: a}) + divided_difference(f, a, b)
    if family == "pi":
        return divided_difference(LaurentPoly.variable(a) * f, a, b)
    if family == "pibar":
        return divided_difference(LaurentPoly.variable(a) * f, a, b) - f
    if family == "T":
        pibar = divided_difference(LaurentPoly.variable(a) * f, a, b) - f
        return -(_Q1 + _Q2) * pibar + _Q2 * rename_poly(f, {a: b, b: a})
    raise ValueError(f"unknown operator family {family!r}")


def apply_word(
    family: str, word: Sequence[int], f: LaurentPoly, n: int
) -> LaurentPoly:
    """Apply a generator word with the first letter acting first."""
    for i in word:
        f = apply_generator(family, i, f, n)
    return f


def apply_inverse_word(
    family: str, mu: Permutation, f: LaurentPoly
) -> LaurentPoly:
    """Apply the classical operator D_mu (last letter of the word acts first).

    With word conventions as in :func:`apply_word`, this is the composition
    used by the defining recursions of the Schubert and Grothendieck tables:
    D_{mu s_j} = D_mu after D_j whenever the length increases.
    """
    return apply_word(family, tuple(reversed(mu.reduced_word())), f, mu.n)


def all_inverse_words(
    family: str, f: LaurentPoly, n: int
) -> dict[Permutation, LaurentPoly]:
    """D_mu f, as :func:`apply_inverse_word` computes it, for every mu in S_n.

    Each mu peels its first left descent i, so D_mu f = D_i (D_{s_i mu} f)
    reuses the shorter image and costs one generator (see the module
    docstring); the images come in :func:`all_permutations` order.
    """
    images = dict(weak_order_walk(n, f, lambda g, nu, i: apply_generator(family, i, g, n)))
    return {mu: images[mu.inverse()] for mu in all_permutations(n)}


def random_probe(rng: random.Random, n: int) -> LaurentPoly:
    """A random integer polynomial probe in n variables: 1 to 6 terms of
    degree <= 4."""
    p = LaurentPoly.zero()
    for _ in range(rng.randint(1, 6)):
        exps = {}
        budget = rng.randint(0, 4)
        for i in range(1, n + 1):
            if budget <= 0:
                break
            e = rng.randint(0, budget)
            if e:
                exps[f"x{i}"] = e
                budget -= e
        coeff = rng.choice([c for c in range(-9, 10) if c])
        p = p + LaurentPoly.monomial(exps, coeff)
    return p


def check_relations(family: str, n: int, seed: int = 0) -> CheckReport:
    """Probe the braid, commutation and quadratic relations of one family,
    the last with the (a, b) of :data:`FAMILIES`.

    Randomized under ``seed``: every relation is evaluated on 4 random
    integer polynomials; any violation is reported with a witness (it would
    indicate an implementation bug, not a property of the family).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown operator family {family!r}")
    a, b = FAMILIES[family]
    report = CheckReport(name=f"relations[{family}, n={n}]", seed=seed)
    rng = random.Random(seed)
    for _ in range(4):
        f = random_probe(rng, n)

        def op(word, g=f):
            return apply_word(family, word, g, n)

        for i in range(1, n - 1):
            lhs = op((i, i + 1, i))
            rhs = op((i + 1, i, i + 1))
            report.record(lhs == rhs, lambda: f"braid({i},{i + 1}) on {f}")
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                report.record(
                    op((i, j)) == op((j, i)), lambda: f"commute({i},{j}) on {f}"
                )
        for i in range(1, n):
            ti = op((i,))
            tii = op((i,), ti)
            report.record(tii == a * ti + b * f, lambda: f"quadratic({i}) on {f}")
    return report
