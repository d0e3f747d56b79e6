"""Exact sparse Laurent polynomials over Q and their fraction field.

A polynomial is a map from monomials to nonzero exact rational coefficients,
so all arithmetic is exact; there is no floating point anywhere in this
package.  Each coefficient is stored as the number it is: an ``int``, or a
``fractions.Fraction`` when it is not integral (:func:`_scalar` decides, and
rejects floats).  Almost every coefficient in practice is an integer, so the
kernels run on Python ints with no conversion, and one path serves both.

One polynomial renamed at many permutations, as in the specializations
p(u^mu, u) of the transition theorems, is compiled once by
:func:`compile_specialization`: the exponents that a permutation does not
move are packed into one integer key per term (Kronecker substitution, one
offset digit per variable, wide enough for every signed image exponent), so
each permutation adds one integer shift per group of terms and each distinct
key becomes a monomial only once.

Variables are compact strings: the indexed families ``x1, x2, ...``,
``y1, ...``, ``u1, ...`` and the two parameters ``q1``, ``q2``, plus one
internal name, :data:`BETA`.  The canonical variable order is

    q1 < q2 < u1 < u2 < ... < y1 < y2 < ... < x1 < x2 < ...

and monomials are compared in graded-lexicographic order with respect to it.
Negative exponents are allowed for the ``x`` and ``u`` families only (the
K-theory tables need 1/x_i and multiplicative spectral parameters need v/u);
``y`` and ``q`` variables stay polynomial, so a quotient such as 1/(q1+q2)
lives in :class:`RationalFunction`.

A monomial is a tuple of (variable, nonzero exponent) items in canonical
variable order, so the kernels multiply monomials by merging their tuples
by the cached variable keys; only a monomial given as a mapping is sorted.

>>> p = LaurentPoly.variable("x1") - LaurentPoly.variable("y1")
>>> str(p * p)
'x1^2 - 2*x1*y1 + y1^2'
>>> str(LaurentPoly.variable("x1") / LaurentPoly.variable("x2"))
'x1*x2^-1'
"""

from __future__ import annotations

from fractions import Fraction
from math import comb as _comb, gcd as _int_gcd, lcm as _int_lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DivisionByZero,
    ExactDivisionError,
    SubstitutionSingular,
    ZeroPolynomial,
)

__all__ = [
    "LaurentPoly",
    "RationalFunction",
    "Scalar",
    "BETA",
    "var_parts",
    "var_sort_key",
    "exact_div",
    "poly_gcd",
    "coefficients_in",
    "clear_beta",
    "divided_difference",
    "rename_poly",
    "compile_specialization",
    "rename_rf",
    "substitute",
    "substitute_poly",
    "lowest_homogeneous_component",
    "format_poly",
    "format_rf",
]

# Canonical (ordering) rank of each family; index breaks ties inside a family.
_FAMILY_RANK = {"q": 0, "u": 2, "y": 3, "x": 4}
# Families whose variables are invertible inside LaurentPoly.
_LAURENT_FAMILIES = frozenset({"x", "u"})
# Display significance when rendering: x's first, then y, u, q.
_DISPLAY_RANK = {"x": 0, "y": 1, "u": 2, "q": 3}

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by var_sort_key
Scalar = Union[int, Fraction]


# Every name `_var_info` has accepted, and BETA below -> ((family, index),
# canonical key, display key, invertible).  A memo of a pure function of the
# name: a name enters only after validation, so a bad name is rejected on
# every call.
_VARS: dict[str, tuple[tuple[str, int], tuple[int, int], tuple[int, int], bool]] = {}


def _var_info(v: str) -> tuple[tuple[str, int], tuple[int, int], tuple[int, int], bool]:
    info = _VARS.get(v)
    if info is not None:
        return info
    fam, digits = v[:1], v[1:]
    # only the canonical spelling: ASCII digits without a leading zero
    if (
        fam not in ("x", "y", "u", "q")
        or not (digits.isascii() and digits.isdigit())
        or digits[0] == "0"
    ):
        raise ValueError(f"unknown variable {v!r}")
    idx = int(digits)
    if fam == "q" and idx not in (1, 2):
        raise ValueError(f"unknown variable {v!r}")
    rank = _FAMILY_RANK[fam] if fam != "q" else idx - 1
    info = ((fam, idx), (rank, idx), (_DISPLAY_RANK[fam], idx), fam in _LAURENT_FAMILIES)
    _VARS[v] = info
    return info


# The one internal name: it carries beta = q1*q2/(q1+q2)^2 while the generic
# family's Yang-Baxter elements are built in their one-parameter form
# (hecke.py).  It sorts and prints like a q variable below q1, stays
# polynomial, and the text grammar cannot spell it.
BETA = "q0"
_VARS[BETA] = (("q", 0), (-1, 0), (_DISPLAY_RANK["q"], 0), False)


def var_parts(v: str) -> tuple[str, int]:
    """Split a variable string into (family, index); q1/q2 have family 'q'."""
    return _var_info(v)[0]


def var_sort_key(v: str) -> tuple[int, int]:
    return _var_info(v)[1]


def _display_key(v: str) -> tuple[int, int]:
    return _var_info(v)[2]


def _item_sort_key(item: tuple[str, int]) -> tuple[int, int]:
    info = _VARS.get(item[0])
    return (info if info is not None else _var_info(item[0]))[1]


def _mono_from_dict(exps: Mapping[str, int]) -> Monomial:
    items = [(v, e) for v, e in exps.items() if e != 0]
    items.sort(key=_item_sort_key)
    return tuple(items)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two canonical monomials, by merging them.

    The items of ``m2`` are inserted into ``m1`` in canonical order; the
    exponents of a shared variable add up and a zero sum drops out.  Items
    whose exponent does not change are kept as they are.
    """
    if not m1:
        return m2
    if not m2:
        return m1
    info = _VARS  # every variable of a monomial is in it, [1] its canonical key
    out = list(m1)
    n = len(out)
    i = 0
    for item in m2:
        v = item[0]
        k = info[v][1]
        while i < n and info[out[i][0]][1] < k:
            i += 1
        if i < n and out[i][0] == v:
            e = out[i][1] + item[1]
            if e:
                out[i] = (v, e)
                i += 1
            else:
                del out[i]
                n -= 1
        else:
            out.insert(i, item)
            i += 1
            n += 1
    return tuple(out)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _graded_key(names: Sequence[str]) -> Callable[[Monomial], tuple[int, list[int]]]:
    """A sort key of monomials in the variables ``names``: the total degree,
    then the exponents over ``names``, the first the most significant."""
    slot = {v: i for i, v in enumerate(names)}
    width = len(names)

    def key(m: Monomial) -> tuple[int, list[int]]:
        exps = [0] * width
        for v, e in m:
            exps[slot[v]] = e
        return sum(exps), exps

    return key


def _canonical_key(monos: Iterable[Monomial]) -> Callable[[Monomial], tuple[int, list[int]]]:
    """The graded-lex key in the canonical variable order, the largest
    variable the most significant, for monomials in the variables of
    ``monos``.  It decides leading terms (the sign of a denominator)."""
    names = sorted({v for m in monos for v, _ in m}, key=var_sort_key, reverse=True)
    return _graded_key(names)


def _display_sorted(monos: Iterable[Monomial]) -> list[Monomial]:
    """The monomials in rendering order: higher total degree first, then
    lexicographically by exponent with x1 as the most significant variable,
    so that x1 + x2 - y1 - y2 prints in the familiar way.

    Canonical decisions (denominator sign) use :func:`_canonical_key` instead.
    """
    monos = list(monos)
    names = sorted({v for m in monos for v, _ in m}, key=_display_key)
    return sorted(monos, key=_graded_key(names), reverse=True)


def _scalar(c) -> Scalar:
    """``c`` as a stored coefficient: a plain int, or a Fraction that is not one.

    The one place that decides a coefficient's type; anything but an int or
    a Fraction, a float included, raises :class:`TypeError`.
    """
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


def _check_mono(m: Monomial) -> None:
    for v, e in m:
        info = _VARS.get(v)
        invertible = (info if info is not None else _var_info(v))[3]
        if not isinstance(e, int) or e == 0:
            raise ValueError(f"bad exponent {e!r} for {v}")
        if e < 0 and not invertible:
            raise ValueError(f"negative exponent on {v}: only x/u may be inverted")


class LaurentPoly:
    """A sparse Laurent polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                c = _scalar(c)
                if not c:
                    continue
                m = _mono_from_dict(dict(m)) if m else ()
                _check_mono(m)
                clean[m] = clean.get(m, 0) + c
        self._terms = {m: _scalar(c) for m, c in clean.items() if c}

    @classmethod
    def _raw(cls, terms: dict[Monomial, Scalar]) -> "LaurentPoly":
        p = object.__new__(cls)
        p._terms = terms
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({(): 1})

    @classmethod
    def constant(cls, c: Scalar) -> "LaurentPoly":
        c = _scalar(c)
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, v: str, exp: int = 1) -> "LaurentPoly":
        m = _mono_from_dict({v: exp})
        _check_mono(m)
        return cls._raw({m: 1})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: Scalar = 1) -> "LaurentPoly":
        c = _scalar(coeff)
        if not c:
            return cls.zero()
        m = _mono_from_dict(exps)
        _check_mono(m)
        return cls._raw({m: c})

    # ------------------------------------------------------------------
    # views

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        t = self._terms
        return len(t) == 1 and t.get(()) == 1

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self._terms.get((), 0)

    def variables(self) -> set[str]:
        return {v for m in self._terms for v, _ in m}

    def coefficient(self, exps: Mapping[str, int]) -> Scalar:
        return self._terms.get(_mono_from_dict(exps), 0)

    def total_degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return max(_mono_degree(m) for m in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------------
    # arithmetic

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; use the term map for identity checks

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({m: -c for m, c in self._terms.items()})

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for m, c in other._terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        if other.is_constant:
            c = other.constant_value()
            return LaurentPoly._raw({m: a * c for m, a in self._terms.items()})
        if self.is_constant:
            c = self.constant_value()
            return LaurentPoly._raw({m: a * c for m, a in other._terms.items()})
        b = other._terms.items()
        out: dict[Monomial, Scalar] = {}
        get = out.get
        for m1, c1 in self._terms.items():
            for m2, c2 in b:
                m = _mono_mul(m1, m2)
                out[m] = get(m, 0) + c1 * c2
        return LaurentPoly._raw({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._terms) == 1:
                (m, c), = self._terms.items()
                inv = tuple((v, -e) for v, e in m)
                _check_mono(inv)
                return LaurentPoly._raw({inv: _scalar(Fraction(1, c))}) ** (-n)
            raise ValueError("negative powers only for invertible monomials")
        return _power(self, n)

    def __truediv__(self, other) -> "RationalFunction":
        return RationalFunction(self) / other

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"

    # ------------------------------------------------------------------
    # structure helpers

    def leading(self) -> tuple[Monomial, Scalar]:
        """Leading (monomial, coefficient) in the canonical order."""
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = max(self._terms, key=_canonical_key(self._terms))
        return m, self._terms[m]

    def min_exponents(self) -> dict[str, int]:
        """Per-variable minimum exponent across all terms (0 if absent somewhere).

        One pass: the lowest exponent of each variable and the number of
        terms it occurs in; a positive minimum counts only if it occurs in
        every term.
        """
        low: dict[str, int] = {}
        seen: dict[str, int] = {}
        for m in self._terms:
            for v, e in m:
                k = seen.get(v)
                if k is None:
                    low[v] = e
                    seen[v] = 1
                else:
                    if e < low[v]:
                        low[v] = e
                    seen[v] = k + 1
        n = len(self._terms)
        return {v: e for v, e in low.items() if e < 0 or seen[v] == n}

    def shifted(self, delta: Mapping[str, int]) -> "LaurentPoly":
        """Multiply by the monomial with exponent vector ``delta``."""
        if not delta:
            return self
        dm = _mono_from_dict(delta)
        out = {}
        for m, c in self._terms.items():
            nm = _mono_mul(m, dm)
            _check_mono(nm)
            out[nm] = c
        return LaurentPoly._raw(out)

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators / lcm of denominators."""
        return _rational_content(self._terms.values())

    def map_coefficients(self, fn) -> "LaurentPoly":
        out = {}
        for m, c in self._terms.items():
            nc = _scalar(fn(c))
            if nc:
                out[m] = nc
        return LaurentPoly._raw(out)


def _rational_content(coeffs: Iterable[Scalar]) -> Fraction:
    """The gcd of the numerators over the lcm of the denominators."""
    g = 0
    l = 1
    for c in coeffs:
        g = _int_gcd(g, c.numerator)
        l = _int_lcm(l, c.denominator)
    return Fraction(g, l)


_P_ZERO = LaurentPoly.zero()
_P_ONE = LaurentPoly.one()


def _power(base, n: int):
    """``base ** n`` for ``n >= 0`` by square-and-multiply; ``base`` is a
    :class:`LaurentPoly` or a :class:`RationalFunction`."""
    out = base.one()
    while n:
        if n & 1:
            out = out * base
        base = base * base if n > 1 else base
        n >>= 1
    return out


# ----------------------------------------------------------------------
# exact division and gcd


def exact_div(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Divide ``p`` by ``d`` exactly; raise :class:`ExactDivisionError` otherwise."""
    if d.is_zero:
        raise DivisionByZero("exact division by zero polynomial")
    if p.is_zero:
        return _P_ZERO
    if d.is_constant:
        c = d.constant_value()
        return p.map_coefficients(lambda a: Fraction(a, c))
    sp = p.min_exponents()
    sd = d.min_exponents()
    P = p.shifted({v: -e for v, e in sp.items()})
    D = d.shifted({v: -e for v, e in sd.items()})
    Q = _divide_ordinary(P, D)
    delta = dict(sp)
    for v, e in sd.items():
        delta[v] = delta.get(v, 0) - e
    delta = {v: e for v, e in delta.items() if e}
    for v, e in delta.items():
        fam, _ = var_parts(v)
        if e < 0 and fam not in _LAURENT_FAMILIES:
            raise ExactDivisionError("quotient would need a negative y/q exponent")
    return Q.shifted(delta)


def _divide_ordinary(P: LaurentPoly, D: LaurentPoly) -> LaurentPoly:
    lead_m, lead_c = D.leading()
    lead_inv = tuple((v, -e) for v, e in lead_m)
    rem = dict(P.terms)
    quo: dict[Monomial, Scalar] = {}
    # every remainder term is in the variables of P and D
    key = _canonical_key([*P.terms, *D.terms])
    while rem:
        m = max(rem, key=key)
        c = rem[m]
        tm = _mono_mul(m, lead_inv)
        if any(e < 0 for _, e in tm):
            raise ExactDivisionError("not divisible")
        tc = _scalar(Fraction(c, lead_c))
        quo[tm] = quo.get(tm, 0) + tc
        for dm, dc in D.terms.items():
            nm = _mono_mul(tm, dm)
            nc = rem.get(nm, 0) - tc * dc
            if nc:
                rem[nm] = nc
            else:
                rem.pop(nm, None)
    return LaurentPoly._raw({m: c for m, c in quo.items() if c})


def _normal_positive(p: LaurentPoly) -> LaurentPoly:
    """Strip rational content and make the canonical leading coefficient +1-signed."""
    if p.is_zero:
        return p
    c = p.content()
    _, lc = p.leading()
    if lc < 0:
        c = -c
    return p.map_coefficients(lambda a: a / c)


def coefficients_in(p: LaurentPoly, v: str) -> dict[int, LaurentPoly]:
    """``p`` as a polynomial in ``v``: each exponent of ``v`` -> its coefficient.

    ``v`` is found by its canonical key: :data:`BETA`, which sorts first,
    and the main variable of :func:`poly_gcd`, which sorts last in every
    term that has it, are read off an end of each monomial.  Dropping one
    item keeps a monomial canonical.
    """
    info = _VARS
    key = _var_info(v)[1]
    out: dict[int, dict[Monomial, Scalar]] = {}
    for m, c in p.terms.items():
        e = 0
        if m and info[m[0][0]][1] <= key <= info[m[-1][0]][1]:
            if m[0][0] == v:
                e, m = m[0][1], m[1:]
            elif m[-1][0] == v:
                e, m = m[-1][1], m[:-1]
            else:
                for k in range(1, len(m) - 1):
                    if m[k][0] == v:
                        e, m = m[k][1], m[:k] + m[k + 1:]
                        break
        out.setdefault(e, {})[m] = c
    return {e: LaurentPoly._raw(t) for e, t in out.items()}


def clear_beta(p: LaurentPoly) -> tuple[LaurentPoly, int]:
    """``p`` = sum_j P_j BETA^j of degree K in :data:`BETA`, at beta =
    q1*q2/(q1+q2)^2, as (N, K) with p = N/(q1+q2)^(2K).

    N = sum_j P_j (q1*q2)^j (q1+q2)^(2K-2j) is expanded in one pass: its
    coefficient of q1^s*q2^(2K-s) is sum_j C(2K-2j, s-j) P_j.  A ``p`` free
    of BETA is returned as it is, with K = 0.
    """
    parts = coefficients_in(p, BETA)
    top = max(parts, default=0)
    if not top:
        return p, 0
    out: dict[Monomial, Scalar] = {}
    get = out.get
    for j, part in parts.items():
        width = 2 * (top - j)
        for i in range(width + 1):
            b = _comb(width, i)
            q = tuple(item for item in (("q1", j + i), ("q2", 2 * top - j - i)) if item[1])
            for m, a in part.terms.items():
                # BETA is gone, so only q1 or q2 can sort before the q part
                nm = _mono_mul(q, m) if m and m[0][0] in ("q1", "q2") else q + m
                out[nm] = get(nm, 0) + b * a
    return LaurentPoly._raw({m: c for m, c in out.items() if c}), top


def _collect_univar(A: dict[int, LaurentPoly], v: str) -> LaurentPoly:
    out: dict[Monomial, Scalar] = {}
    for e, coeff in A.items():
        for m, c in coeff.terms.items():
            nm = _mono_mul(m, ((v, e),) if e else ())
            out[nm] = out.get(nm, 0) + c
    return LaurentPoly._raw({m: c for m, c in out.items() if c})


def _prem(A: dict[int, LaurentPoly], B: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """Pseudo-remainder of two nonzero univariate polys with poly coefficients."""
    dB = max(B)
    lB = B[dB]
    R = dict(A)
    while R and max(R) >= dB:
        dR = max(R)
        lR = R[dR]
        Rn: dict[int, LaurentPoly] = {}
        for e, c in R.items():
            if e != dR:
                Rn[e] = c * lB
        for e, c in B.items():
            if e == dB:
                continue
            e2 = e + dR - dB
            Rn[e2] = Rn.get(e2, _P_ZERO) + (-(lR * c))
        R = {e: c for e, c in Rn.items() if not c.is_zero}
    return R


def _coeff_gcd(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    g = _P_ZERO
    for p in polys:
        g = poly_gcd(g, p)
        if g.is_one:
            return g
    return g


def poly_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """A gcd of two Laurent polynomials (primitive, positive leading coefficient).

    The result always divides both inputs exactly; it is used to keep fraction
    denominators small, never to decide equality.
    """
    if p.is_zero:
        return _normal_positive(q)
    if q.is_zero:
        return _normal_positive(p)
    sp = p.min_exponents()
    sq = q.min_exponents()
    common = {}
    for v in set(sp) | set(sq):
        e = min(sp.get(v, 0), sq.get(v, 0))
        if e:
            common[v] = e
    P = _normal_positive(p.shifted({v: -e for v, e in sp.items()}))
    Q = _normal_positive(q.shifted({v: -e for v, e in sq.items()}))
    G = _gcd_rec(P, Q)
    return G.shifted(common)


def _gcd_rec(P: LaurentPoly, Q: LaurentPoly) -> LaurentPoly:
    if P.is_zero:
        return _normal_positive(Q)
    if Q.is_zero:
        return _normal_positive(P)
    if P.is_constant or Q.is_constant:
        return _P_ONE
    vs = P.variables() | Q.variables()
    v = max(vs, key=var_sort_key)
    A = coefficients_in(P, v)
    B = coefficients_in(Q, v)
    if max(A) < max(B):
        A, B = B, A
    contA = _coeff_gcd(A.values())
    contB = _coeff_gcd(B.values())
    A = {e: exact_div(c, contA) for e, c in A.items()}
    B = {e: exact_div(c, contB) for e, c in B.items()}
    while B:
        R = _prem(A, B)
        if R:
            # Primitive PRS (Brown 1971): the gcd of the coefficients is
            # primitive, so the rational content is divided out too, or the
            # integers grow with every pseudo-remainder.
            contR = _coeff_gcd(R.values()) * _rational_content(
                a for c in R.values() for a in c.terms.values()
            )
            R = {e: exact_div(c, contR) for e, c in R.items()}
        A, B = B, R
    prim = _collect_univar(A, v)
    cont = _gcd_rec(contA, contB)
    return _normal_positive(prim * cont)


def divided_difference(p: LaurentPoly, va: str, vb: str) -> LaurentPoly:
    """(p - s p)/(va - vb), where s exchanges ``va`` and ``vb``.

    Term by term: va^a*vb^b with a > b gives the a - b terms
    va^(b+k)*vb^(a-1-k) of (va^a*vb^b - va^b*vb^a)/(va - vb), a < b gives
    the same terms negated, and a = b gives nothing.  Exponents may be
    negative.
    """
    sign = 1
    if var_sort_key(vb) < var_sort_key(va):  # put the pair in canonical order
        va, vb, sign = vb, va, -1
    out: dict[Monomial, Scalar] = {}
    for m, c in p.terms.items():
        a = b = 0
        rest = []
        for item in m:
            v = item[0]
            if v == va:
                a = item[1]
            elif v == vb:
                b = item[1]
            else:
                rest.append(item)
        rest = tuple(rest)
        c *= sign
        if a < b:
            a, b, c = b, a, -c
        for k in range(a - b):
            pair = ((va, b + k), (vb, a - 1 - k))
            tm = _mono_mul(rest, tuple(item for item in pair if item[1]))
            nc = out.get(tm, 0) + c
            if nc:
                out[tm] = nc
            else:
                out.pop(tm, None)
    return LaurentPoly._raw(out)


# ----------------------------------------------------------------------
# rational functions


class RationalFunction:
    """A quotient of Laurent polynomials, normalized on construction.

    Normalization strips common monomial factors (pushing invertible x/u
    monomials into the numerator), removes rational content, and scales so
    the denominator has positive leading coefficient.  It reads the
    denominator's minimum exponents, content and leading term; the numerator
    is read only when a y/q variable has a positive minimum exponent in the
    denominator, the one case where the numerator decides the shift.
    Equality is decided by cross-multiplication, so it never depends on gcd
    reduction; gcds are only used inside ``+`` and ``*`` to keep
    denominators from growing.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.constant(num)
        if den is None:
            den = _P_ONE
        elif not isinstance(den, LaurentPoly):
            den = LaurentPoly.constant(den)
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            self.num = _P_ZERO
            self.den = _P_ONE
            return
        if den.is_one:
            # Over the denominator 1 the steps below change nothing: only x/u
            # exponents go negative, so no monomial shift applies, and the
            # content and the leading coefficient are both 1.
            self.num = num
            self.den = _P_ONE
            return
        shift: dict[str, int] = {}
        low = None
        for v, e in den.min_exponents().items():
            if _VARS[v][3]:  # an x/u power of the denominator moves up
                shift[v] = -e
            else:  # a y/q factor cancels as far as the numerator shares it
                low = num.min_exponents() if low is None else low
                e = min(e, low.get(v, 0))
                if e:
                    shift[v] = -e
        if shift:
            num = num.shifted(shift)
            den = den.shifted(shift)
        s = den.content()
        _, lc = den.leading()
        if lc < 0:
            s = -s
        if s != 1:
            num = num.map_coefficients(lambda x: x / s)
            den = den.map_coefficients(lambda x: x / s)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(_P_ZERO)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(_P_ONE)

    @classmethod
    def constant(cls, c: Scalar) -> "RationalFunction":
        return cls(LaurentPoly.constant(c))

    @classmethod
    def variable(cls, v: str, exp: int = 1) -> "RationalFunction":
        fam, _ = var_parts(v)
        if exp < 0 and fam not in _LAURENT_FAMILIES:
            return cls(_P_ONE, LaurentPoly.variable(v, -exp))
        return cls(LaurentPoly.variable(v, exp))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num == self.den

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

    def as_poly(self) -> LaurentPoly:
        if not self.den.is_one:
            raise ValueError("not a polynomial")
        return self.num

    @staticmethod
    def _coerce(other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, LaurentPoly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other)
        return None

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __neg__(self) -> "RationalFunction":
        f = RationalFunction.__new__(RationalFunction)
        f.num = -self.num
        f.den = self.den
        return f

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero:
            return other
        if other.num.is_zero:
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        if self.den.is_one:
            return RationalFunction(self.num * other.den + other.num, other.den)
        if other.den.is_one:
            return RationalFunction(self.num + other.num * self.den, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_one:
            return RationalFunction(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        db = exact_div(self.den, g)
        dd = exact_div(other.den, g)
        return RationalFunction(self.num * dd + other.num * db, self.den * dd)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero or other.num.is_zero:
            return RationalFunction.zero()
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not d.is_one:
            g = poly_gcd(a, d)
            if not g.is_one:
                a = exact_div(a, g)
                d = exact_div(d, g)
        if not b.is_one:
            g = poly_gcd(c, b)
            if not g.is_one:
                c = exact_div(c, g)
                b = exact_div(b, g)
        return RationalFunction(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise DivisionByZero("division by the zero rational function")
        return self * RationalFunction(other.den, other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.num.is_zero:
                raise DivisionByZero("inverse of zero")
            return RationalFunction(self.den, self.num) ** (-n)
        return _power(self, n)

    def simplify(self) -> "RationalFunction":
        """Fully gcd-reduced copy (optional; equality never needs it)."""
        if self.den.is_one or self.num.is_zero:
            return self
        g = poly_gcd(self.num, self.den)
        if g.is_one:
            return self
        return RationalFunction(exact_div(self.num, g), exact_div(self.den, g))

    def __str__(self) -> str:
        return format_rf(self)

    def __repr__(self) -> str:
        return f"RationalFunction({format_rf(self)!r})"


_R_ZERO = RationalFunction.zero()
_R_ONE = RationalFunction.one()


# ----------------------------------------------------------------------
# substitution


def rename_poly(p: LaurentPoly, varmap: Mapping[str, str]) -> LaurentPoly:
    """Replace variables by variables (exponents of merged targets add up).

    The map is compiled once into slots, one per target variable (a
    variable outside the map is its own target), so each term's image is a
    fixed-length exponent tuple.  The tuples are summed and become
    canonical monomials only at the end; every distinct image is validated,
    also one whose coefficients cancel.
    """
    if not varmap:
        return p
    names: list[str] = []  # slot -> target variable
    target_slot: dict[str, int] = {}
    for t in varmap.values():
        if t not in target_slot:
            target_slot[t] = len(names)
            names.append(t)
    slot = {v: target_slot[t] for v, t in varmap.items()}
    for t, s in target_slot.items():
        slot.setdefault(t, s)
    width = len(names)
    sums: dict[tuple[int, ...], Scalar] = {}
    get = sums.get
    for m, c in p.terms.items():
        exps = [0] * width
        try:
            for v, e in m:
                exps[slot[v]] += e
        except KeyError:  # first sight of a variable outside the map
            for v, _ in m:
                if v not in slot:
                    slot[v] = width
                    names.append(v)
                    width += 1
            exps = [0] * width
            for v, e in m:
                exps[slot[v]] += e
        key = tuple(exps)
        sums[key] = get(key, 0) + c
    # Slots in canonical variable order make each image a sorted monomial;
    # keys made before a slot was added are padded with zeros.
    order = sorted(range(width), key=lambda s: var_sort_key(names[s]))
    pad = (0,) * width
    out: dict[Monomial, Scalar] = {}
    for key, c in sums.items():
        key += pad[len(key):]
        m = tuple((names[s], key[s]) for s in order if key[s])
        _check_mono(m)
        out[m] = out.get(m, 0) + c
    return LaurentPoly._raw({m: c for m, c in out.items() if c})


def compile_specialization(
    p: LaurentPoly, n: int, moved: str, fixed: str
) -> Callable[[Sequence[int]], LaurentPoly]:
    """Compile the renames moved_i -> u_{w(i)}, fixed_j -> u_j of ``p``.

    The result takes the images (w(1), ..., w(n)) and returns what
    ``rename_poly`` gives for that map (1 <= i, j <= n); every other
    variable passes through, a u_k with k <= n merging with the images.
    The terms are grouped by their moved exponents a.  The exponents of the
    other variables are packed into one integer key in base W = 2^bits, one
    digit per output variable (u1..un first), each digit offset by the
    largest sum of |e| over a term so that every signed image exponent
    decodes.  At w a group adds the one shift sum_i a_i * W^(w(i) - 1) to
    its keys, and each distinct key becomes a canonical monomial, validated,
    once per compiled polynomial.
    """
    names = [f"u{k}" for k in range(1, n + 1)]  # slot -> output variable
    slot = {v: k for k, v in enumerate(names)}
    slot.update({f"{fixed}{j}": j - 1 for j in range(1, n + 1)})
    moved_slot = {f"{moved}{i}": i - 1 for i in range(1, n + 1)}
    terms = p.terms
    bound = max((sum(abs(e) for _, e in m) for m in terms), default=0)
    bits = (2 * bound).bit_length()  # offset digits lie in [0, 2 * bound]
    # moved exponents (i, a_i) -> the terms' keys, without the offset
    groups: dict[tuple[tuple[int, int], ...], list[tuple[int, Scalar]]] = {}
    for m, c in terms.items():
        shift = []
        key = 0
        for v, e in m:
            i = moved_slot.get(v)
            if i is not None:
                shift.append((i, e))
                continue
            s = slot.get(v)
            if s is None:
                s = slot[v] = len(names)
                names.append(v)
            key += e << (bits * s)
        groups.setdefault(tuple(shift), []).append((key, c))
    width = len(names)
    offset = sum(bound << (bits * s) for s in range(width))
    order = sorted(range(width), key=lambda s: var_sort_key(names[s]))
    mask = (1 << bits) - 1
    memo: dict[int, Monomial] = {}

    def decode(key: int) -> Monomial:
        digits = []
        for _ in range(width):
            digits.append((key & mask) - bound)
            key >>= bits
        m = tuple((names[s], digits[s]) for s in order if digits[s])
        _check_mono(m)
        return m

    def at(w: Sequence[int]) -> LaurentPoly:
        power = [1 << (bits * (k - 1)) for k in w]
        sums: dict[int, Scalar] = {}
        get = sums.get
        for shift, keys in groups.items():
            d = offset
            for i, e in shift:
                d += e * power[i]
            for key, c in keys:
                key += d
                sums[key] = get(key, 0) + c
        out: dict[Monomial, Scalar] = {}
        for key, c in sums.items():
            m = memo.get(key)
            if m is None:
                m = memo[key] = decode(key)
            if c:
                out[m] = c
        return LaurentPoly._raw(out)

    return at


def rename_rf(f: RationalFunction, varmap: Mapping[str, str]) -> RationalFunction:
    if not varmap:
        return f
    return RationalFunction(rename_poly(f.num, varmap), rename_poly(f.den, varmap))


def substitute_poly(
    p: LaurentPoly, images: Mapping[str, RationalFunction]
) -> RationalFunction:
    """Image of a polynomial under a variable -> rational-function map."""
    if not images:
        return RationalFunction(p)
    cache: dict[tuple[str, int], RationalFunction] = {}

    def power(v: str, e: int) -> RationalFunction:
        key = (v, e)
        got = cache.get(key)
        if got is not None:
            return got
        img = images.get(v)
        if img is None:
            val = RationalFunction.variable(v, e)
        else:
            if e < 0 and img.is_zero:
                raise SubstitutionSingular(f"substituting 0 for inverted {v}")
            val = img ** e
        cache[key] = val
        return val

    total = _R_ZERO
    for m, c in p.terms.items():
        term = RationalFunction.constant(c)
        for v, e in m:
            term = term * power(v, e)
        total = total + term
    return total


def substitute(
    f: RationalFunction, images: Mapping[str, RationalFunction]
) -> RationalFunction:
    """Image of ``f`` under the field homomorphism induced by ``images``.

    Raises :class:`SubstitutionSingular` when the denominator goes to zero.
    """
    num = substitute_poly(f.num, images)
    den = substitute_poly(f.den, images)
    if den.is_zero:
        raise SubstitutionSingular("denominator vanishes under substitution")
    return num / den


def lowest_homogeneous_component(p: LaurentPoly, vars: Iterable[str]) -> LaurentPoly:
    """Sum of the terms of minimal total degree in the given variables."""
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial has no lowest component")
    vs = set(vars)
    best: int | None = None
    groups: dict[int, dict[Monomial, Scalar]] = {}
    for m, c in p.terms.items():
        d = 0
        for v, e in m:
            if v in vs:
                if e < 0:
                    raise ValueError("lowest component needs nonnegative exponents")
                d += e
        groups.setdefault(d, {})[m] = c
        if best is None or d < best:
            best = d
    return LaurentPoly._raw(groups[best])


# ----------------------------------------------------------------------
# text rendering (the parsing side lives in serialize.py)


def _format_mono(m: Monomial, latex: bool) -> str:
    parts = []
    for v, e in sorted(m, key=lambda it: _display_key(it[0])):
        fam, idx = var_parts(v)
        if latex:
            name = f"{fam}_{idx}" if fam != "q" else f"q_{idx}"
            if e == 1:
                parts.append(name)
            else:
                parts.append(f"{name}^{{{e}}}")
        else:
            parts.append(v if e == 1 else f"{v}^{e}")
    return ("" if latex else "*").join(parts)


def format_poly(p: LaurentPoly, latex: bool = False) -> str:
    """Deterministic text for a polynomial; parses back via the CLI grammar."""
    if p.is_zero:
        return "0"
    monos = _display_sorted(p.terms)
    pieces: list[str] = []
    for i, m in enumerate(monos):
        c = p.terms[m]
        neg = c < 0
        mag = -c if neg else c
        if not m:
            body = _format_scalar(mag, latex)
        elif mag == 1:
            body = _format_mono(m, latex)
        else:
            sep = "" if latex else "*"
            body = f"{_format_scalar(mag, latex)}{sep}{_format_mono(m, latex)}"
        if i == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"{' - ' if neg else ' + '}{body}" if not latex else
                          f"{'-' if neg else '+'}{body}")
    return "".join(pieces)


def _format_scalar(c: Scalar, latex: bool) -> str:
    if latex and c.denominator != 1:
        return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"
    return str(c)


def format_rf(f: RationalFunction, latex: bool = False) -> str:
    if f.den.is_one:
        return format_poly(f.num, latex)
    if latex:
        return f"\\frac{{{format_poly(f.num, True)}}}{{{format_poly(f.den, True)}}}"
    return f"({format_poly(f.num)})/({format_poly(f.den)})"
