"""Exact sparse Laurent polynomials over Q and their fraction field.

A polynomial is a map from monomials to nonzero exact rational coefficients,
so all arithmetic is exact; there is no floating point anywhere in this
package.  Each coefficient is stored as the number it is: an ``int``, or a
``fractions.Fraction`` when it is not integral (:func:`_scalar` decides, and
rejects floats).  Almost every coefficient in practice is an integer, so the
kernels run on Python ints with no conversion, and one path serves both.

Variables are compact strings: the indexed families ``x1, x2, ...``,
``y1, ...``, ``u1, ...`` and the two parameters ``q1``, ``q2``, plus one
internal name, :data:`BETA`.  The canonical variable order is

    q1 < q2 < u1 < u2 < ... < y1 < y2 < ... < x1 < x2 < ...

and monomials are compared in graded-lexicographic order with respect to it.
Negative exponents are allowed for the ``x`` and ``u`` families only (the
K-theory tables need 1/x_i and multiplicative spectral parameters need v/u);
``y`` and ``q`` variables stay polynomial, so a quotient such as 1/(q1+q2)
lives in :class:`RationalFunction`.

A monomial is stored as one int, its key: each variable gets a slot the
first time it is validated (u1..u8 at import), and the exponent e_v is the
signed 16-bit digit of that slot, so the key is sum_v e_v * 2^(16*slot(v))
and the constant monomial is 0.  A product of monomials is one int addition, and a kernel
that needs one exponent reads or shifts one digit.  Stored exponents lie in
[-2^14, 2^14) (y/q exponents in [0, 2^14)); a sum of two of them fits its
digit, so every kernel checks the keys it makes with one mask
(:func:`_check_keys`) and an exponent out of range raises
:class:`ExponentOverflow` rather than carry into the next slot.  Keys are
decoded into (variable, exponent) pairs in canonical order only at the
boundary: ``.terms``, iteration, ``leading()`` and JSON.  Rendering decodes
nothing: it orders the variables of a polynomial by display key once, sorts
the keys by one integer each (the total degree, then the exponents in that
order) and reads each exponent from its slot.  A rename
(:func:`rename_poly`) moves digits between slots, so a specialization such
as p(u^mu, u) of the transition theorems is one rename.

>>> p = LaurentPoly.variable("x1") - LaurentPoly.variable("y1")
>>> str(p * p)
'x1^2 - 2*x1*y1 + y1^2'
>>> str(LaurentPoly.variable("x1") / LaurentPoly.variable("x2"))
'x1*x2^-1'
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb as _comb, gcd as _int_gcd, lcm as _int_lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DivisionByZero,
    ExactDivisionError,
    ExponentOverflow,
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
    "exponent_vectors",
    "clear_beta",
    "divided_difference",
    "rename_poly",
    "sum_of_products",
    "sums_of_products",
    "as_rf",
    "narrow",
    "rename_rf",
    "substitute",
    "substitute_poly",
    "lowest_homogeneous_component",
    "display_terms",
    "format_poly",
    "format_rf",
]

# Canonical (ordering) rank of each family; index breaks ties inside a family.
_FAMILY_RANK = {"q": 0, "u": 2, "y": 3, "x": 4}
# Families whose variables are invertible inside LaurentPoly.
_LAURENT_FAMILIES = frozenset({"x", "u"})
# Display significance when rendering: x's first, then y, u, q.
_DISPLAY_RANK = {"x": 0, "y": 1, "u": 2, "q": 3}

# The key of a monomial, sum_v e_v * 2^(16*slot(v)); the public views decode
# it into a tuple of (variable, exponent) pairs in canonical variable order.
Monomial = int
Scalar = Union[int, Fraction]

_WIDTH = 16  # bits per slot
_MASK = (1 << _WIDTH) - 1
_HALF_DIGIT = 1 << (_WIDTH - 1)
_LIMIT = 1 << (_WIDTH - 2)  # stored exponents lie in [-_LIMIT, _LIMIT)

# Every name `_var_info` has accepted, and BETA below -> ((family, index),
# canonical key, display key, invertible, shift of its slot).  A memo of the
# name's validation: a name enters only after validation, so a bad name is
# rejected on every call.  _NAMES maps each slot back to its variable.
_VARS: dict[str, tuple[tuple[str, int], tuple[int, int], tuple[int, int], bool, int]] = {}
_NAMES: list[str] = []
# Masks over every slot so far.  k + _HALF has the unsigned digits e + 2^15,
# so (k + _HALF) >> shift & _MASK is a biased exponent; (k + _LOW) & _VALID
# is 0 exactly when every x/u exponent of k lies in [-2^14, 2^14) and every
# y/q one in [0, 2^14), for any k with digits in [-2^15, 2^15).
_HALF = 0  # 2^15 in each slot
_LOW = 0  # 2^14 in each x/u slot
_VALID = 0  # bit 15 of each x/u slot, bits 14 and 15 of each y/q slot


def _register(v: str, parts: tuple[str, int], canon: tuple[int, int], invertible: bool):
    global _HALF, _LOW, _VALID
    shift = _WIDTH * len(_NAMES)
    _NAMES.append(v)
    _HALF |= _HALF_DIGIT << shift
    _LOW |= (_LIMIT if invertible else 0) << shift
    _VALID |= (_HALF_DIGIT if invertible else _HALF_DIGIT | _LIMIT) << shift
    _VARS[v] = (parts, canon, (_DISPLAY_RANK[parts[0]], parts[1]), invertible, shift)
    return _VARS[v]


def _var_info(v: str) -> tuple[tuple[str, int], tuple[int, int], tuple[int, int], bool, int]:
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
    return _register(v, (fam, idx), (rank, idx), fam in _LAURENT_FAMILIES)


# The one internal name: it carries beta = q1*q2/(q1+q2)^2 while the generic
# family's Yang-Baxter elements are built in their one-parameter form
# (hecke.py).  It sorts and prints like a q variable below q1, stays
# polynomial, and the text grammar cannot spell it.
BETA = "q0"
# The spectral parameters take the lowest slots: the Yang-Baxter coefficients
# and every specialization p(u^mu, u) are polynomials in them, so those keys
# stay a few machine words wide.
for _k in range(1, 9):
    _var_info(f"u{_k}")
del _k
_register(BETA, ("q", 0), (-1, 0), False)


def var_parts(v: str) -> tuple[str, int]:
    """Split a variable string into (family, index); q1/q2 have family 'q'."""
    return _var_info(v)[0]


def var_sort_key(v: str) -> tuple[int, int]:
    return _var_info(v)[1]


def _display_key(v: str) -> tuple[int, int]:
    return _var_info(v)[2]


def _pack(exps: Mapping[str, int], check: bool = True) -> Monomial:
    """The key of the monomial with exponents ``exps``; zero exponents drop
    out.  ``check`` also rejects a negative y/q exponent."""
    k = 0
    for v, e in exps.items():
        info = _VARS.get(v) or _var_info(v)
        if not isinstance(e, int):
            raise ValueError(f"bad exponent {e!r} for {v}")
        if not -_LIMIT <= e < _LIMIT:
            raise ExponentOverflow(f"exponent {v}^{e} outside [-{_LIMIT}, {_LIMIT})")
        k += e << info[4]
    if check:
        _check_keys((k,))
    return k


@lru_cache(maxsize=1 << 10)
def _decode(k: Monomial) -> tuple[tuple[str, int], ...]:
    """The key ``k`` as (variable, exponent) pairs in canonical order."""
    items = []
    s = 0
    while k:
        e = (k + _HALF_DIGIT & _MASK) - _HALF_DIGIT
        if e:
            items.append((_NAMES[s], e))
        k = (k - e) >> _WIDTH
        s += 1
    items.sort(key=lambda item: _VARS[item[0]][1])
    return tuple(items)


def _check_keys(keys: Iterable[Monomial]) -> None:
    """Raise unless every key is a valid monomial: every exponent in range,
    and no negative y/q exponent.  Exact for keys whose digits lie in
    [-2^15, 2^15), which every kernel guarantees before it asks."""
    low, valid = _LOW, _VALID
    for k in keys:
        if (k + low) & valid:
            for v, e in _decode(k):
                if e < 0 and not _VARS[v][3]:
                    raise ValueError(f"negative exponent on {v}: only x/u may be inverted")
            raise ExponentOverflow(f"an exponent of {_decode(k)} is outside [-{_LIMIT}, {_LIMIT})")


def _present(keys: Iterable[Monomial]) -> list[str]:
    """The variables with a nonzero exponent in some key, in slot order."""
    half = _HALF
    z = 0
    for k in keys:
        z |= (k + half) ^ half
    return [v for s, v in enumerate(_NAMES) if z >> (_WIDTH * s) & _MASK]


def _floor(keys: Iterable[Monomial]) -> Monomial:
    """The key of the lowest exponent of each variable over ``keys``, a key
    without the variable counting as exponent 0; ``keys`` is read twice."""
    half = _HALF
    biased = [k + half for k in keys]
    f = 0
    for v in _present(keys):
        s = _VARS[v][4]
        f += (min([k >> s & _MASK for k in biased]) - _HALF_DIGIT) << s
    return f


def _graded_key(names: Sequence[str]) -> Callable[[Monomial], int]:
    """A sort key of monomials in the variables ``names``, one integer: the
    total degree above the exponents over ``names``, the first the most
    significant, one 16-bit digit each.  The exponents keep their bias of
    2^15, which changes no comparison."""
    shifts = [_VARS[v][4] for v in names]
    top = _WIDTH * len(shifts)
    half = _HALF

    def key(k: Monomial) -> int:
        k += half
        r = d = 0
        for s in shifts:
            e = k >> s & _MASK
            r = r << _WIDTH | e
            d += e
        return d << top | r

    return key


def _canonical_key(keys: Iterable[Monomial]) -> Callable[[Monomial], int]:
    """The graded-lex key in the canonical variable order, the largest
    variable the most significant, for monomials in the variables of
    ``keys``.  It decides leading terms (the sign of a denominator)."""
    return _graded_key(sorted(_present(keys), key=var_sort_key, reverse=True))


def _lead(terms: Mapping[Monomial, Scalar]) -> Monomial:
    """The leading key of a nonzero term map in the canonical order."""
    if len(terms) == 1:
        return next(iter(terms))
    return max(terms, key=_canonical_key(terms))


def _display_order(terms: Mapping[Monomial, Scalar]) -> tuple[list[str], list[Monomial]]:
    """The variables of ``terms`` in display order (x's first, then y, u, q,
    each family by index) and the keys in rendering order: higher total
    degree first, then by exponent with the first of those variables the
    most significant, so that x1 + x2 - y1 - y2 prints in the familiar way.
    Canonical decisions (denominator sign) use :func:`_canonical_key`."""
    names = sorted(_present(terms), key=_display_key)
    return names, sorted(terms, key=_graded_key(names), reverse=True)


def display_terms(p: "LaurentPoly") -> list[tuple[tuple[tuple[str, int], ...], Scalar]]:
    """The terms of ``p`` as (decoded monomial, coefficient) in rendering
    order (:func:`_display_order`), each monomial in canonical order."""
    t = p._terms
    return [(_decode(k), t[k]) for k in _display_order(t)[1]]


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


def _integral(terms: Mapping[Monomial, Scalar]) -> bool:
    """Every coefficient is an int, so sums and products of them are too;
    otherwise a kernel passes its results through :func:`_scalar`."""
    return type(sum(terms.values())) is int


def _stored(terms: dict, integral: bool) -> dict:
    """``terms`` without zeros, through :func:`_scalar` unless ``integral``."""
    if integral:
        return {m: c for m, c in terms.items() if c}
    return {m: _scalar(c) for m, c in terms.items() if c}


class LaurentPoly:
    """A sparse Laurent polynomial with exact rational coefficients; ``_terms``
    maps monomial keys to coefficients, ``terms`` decodes the keys."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        """``terms`` maps monomials (mappings or (variable, exponent) pairs) to coefficients."""
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                c = _scalar(c)
                if not c:
                    continue
                k = _pack(dict(m)) if m else 0
                clean[k] = clean.get(k, 0) + c
        self._terms = {k: _scalar(c) for k, c in clean.items() if c}

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
        return cls._raw({0: 1})

    @classmethod
    def constant(cls, c: Scalar) -> "LaurentPoly":
        c = _scalar(c)
        return cls._raw({0: c} if c else {})

    @classmethod
    def variable(cls, v: str, exp: int = 1) -> "LaurentPoly":
        return cls._raw({_pack({v: exp}): 1})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: Scalar = 1) -> "LaurentPoly":
        c = _scalar(coeff)
        if not c:
            return cls.zero()
        return cls._raw({_pack(exps): c})

    # ------------------------------------------------------------------
    # views

    @property
    def terms(self) -> dict[tuple[tuple[str, int], ...], Scalar]:
        """The terms, each monomial as (variable, exponent) pairs in canonical order."""
        return {_decode(k): c for k, c in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        t = self._terms
        return len(t) == 1 and t.get(0) == 1

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    @property
    def is_unit(self) -> bool:
        """Whether 1/self is a LaurentPoly: one term in the invertible x/u variables."""
        t = self._terms
        return len(t) == 1 and all(_VARS[v][3] for v in _present(t))

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self._terms.get(0, 0)

    def variables(self) -> set[str]:
        return set(_present(self._terms))

    def coefficient(self, exps: Mapping[str, int]) -> Scalar:
        return self._terms.get(_pack(exps, check=False), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[tuple[tuple[str, int], ...], Scalar]]:
        return ((_decode(k), c) for k, c in self._terms.items())

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
                del out[m]
        # two Fractions may add up to an integer
        if not (_integral(other._terms) or _integral(self._terms)):
            out = _stored(out, False)
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
        """The product, as shifts of the longer operand by the terms of the
        shorter one.

        One term c*X^d (a constant included): the product is {m + d: x*c}
        over the other operand's terms.  A shift is injective, so nothing
        accumulates and no zero appears, and the keys are checked only when
        d != 0.  Two terms or more, {d1: c1, d2: c2, ...}, as every
        Yang-Baxter factor's coefficient has at the symbols: the other
        operand shifted by d1, then shifted by each further d_i and merged
        into it, a term that cancels deleted and the dict compacted once if
        one did.  Each coefficient is stored as :func:`_scalar` stores it
        (only a product with a Fraction operand is passed through it), and
        :class:`ExponentOverflow` is raised where an exponent of the product
        leaves the range.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # a shift by one key: no two products meet and none is zero
            (d, c), = b.items()
            out = {m + d: x * c for m, x in a.items()}
            if d:
                _check_keys(out)
            return LaurentPoly._raw(out if type(c) is int and _integral(a) else _stored(out, False))
        # the first shift makes distinct keys, the others merge into it
        items = iter(b.items())
        d, c = next(items)
        out = {m + d: x * c for m, x in a.items()}
        get = out.get
        cancelled = False
        for d, c in items:
            for m, x in a.items():
                k = m + d
                v = get(k, 0) + x * c
                if v:
                    out[k] = v
                else:
                    del out[k]
                    cancelled = True
        if not (_integral(b) and _integral(a)):
            out = _stored(out, False)
        elif cancelled:
            out = dict(out)  # drop the deleted slots
        _check_keys(out)
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._terms) == 1:
                (m, c), = self._terms.items()
                _check_keys((-m,))
                # a stored 1 or -1 is an int, and its own inverse
                inv = c if c == 1 or c == -1 else _scalar(Fraction(1, c))
                return LaurentPoly._raw({-m: inv}) ** (-n)
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

    def leading(self) -> tuple[tuple[tuple[str, int], ...], Scalar]:
        """Leading (monomial, coefficient) in the canonical order."""
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = _lead(self._terms)
        return _decode(m), self._terms[m]

    def min_exponents(self) -> dict[str, int]:
        """Per-variable minimum exponent across all terms (0 if absent somewhere)."""
        return dict(_decode(_floor(self._terms)))

    def _shift(self, d: Monomial) -> "LaurentPoly":
        if not d:
            return self
        out = {m + d: c for m, c in self._terms.items()}
        _check_keys(out)
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


def sum_of_products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """sum_i a_i * b_i over the pairs (a_i, b_i): the one-sum case of
    :func:`sums_of_products`, accumulated in one term map.

    >>> x, y = LaurentPoly.variable("x1"), LaurentPoly.variable("y1")
    >>> str(sum_of_products([(x, x), (x - y, x + y)]))
    '2*x1^2 - y1^2'
    >>> half = LaurentPoly.constant(Fraction(1, 2))
    >>> sum_of_products([(half, x), (x, half)]).coefficient({"x1": 1})
    1
    """
    return sums_of_products(((a, ((0, b),)) for a, b in pairs), 1)[0]


def sums_of_products(
    operands: Iterable[tuple[LaurentPoly, Iterable[tuple[int, LaurentPoly]]]], width: int
) -> list[LaurentPoly]:
    """The ``width`` sums s_i = sum a * b over each (i, b) listed with an a
    in ``operands``, each accumulated in one term map; sums that share left
    operands, as one row of a matrix product does, take each a once.

    No polynomial is made per product or per partial sum.  Zeros are
    dropped and each sum's coefficient type is decided once, from its
    output.  The range of each operand is scanned once: a product whose
    operand exponents all lie in [-2^13, 2^13) makes only keys in range, so
    it is not checked, and any other is multiplied by ``a * b``, which
    checks its keys, so :class:`ExponentOverflow` is raised exactly where
    the products would raise it.

    >>> x, y = LaurentPoly.variable("x1"), LaurentPoly.variable("y1")
    >>> [str(s) for s in sums_of_products([(x, [(0, x), (1, y)]), (y, [(1, -x)])], 3)]
    ['x1^2', '0', '0']
    """
    # every exponent of k lies in [-2^13, 2^13) exactly when (k + low) & high is 0
    low, high = _HALF >> 2, _HALF | _HALF >> 1
    outs: list[dict[Monomial, Scalar]] = [{} for _ in range(width)]
    for a, entries in operands:
        ta = a._terms
        wide = any((m + low) & high for m in ta)
        for i, b in entries:
            tb = b._terms
            if wide or any((m + low) & high for m in tb):
                _accumulate(outs[i], (a * b)._terms, {0: 1})
            else:
                _accumulate(outs[i], ta, tb)
    return [LaurentPoly._raw(_stored(out, _integral(out))) for out in outs]


def _accumulate(out: dict[Monomial, Scalar], ta: Mapping, tb: Mapping) -> None:
    """Add the product of every pair of terms of ``ta`` and ``tb`` into
    ``out``, zeros kept and keys unchecked."""
    get = out.get
    items = tb.items()
    for m1, c1 in ta.items():
        for m2, c2 in items:
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2


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
    fp, fd = _floor(p._terms), _floor(d._terms)
    Q = _divide_ordinary(p._shift(-fp), d._shift(-fd))
    # Q has floor 0, so Q times the shift has a negative y/q exponent
    # exactly where the shift has one
    try:
        return Q._shift(fp - fd)
    except ValueError:
        raise ExactDivisionError("quotient would need a negative y/q exponent") from None


def _divide_ordinary(P: LaurentPoly, D: LaurentPoly) -> LaurentPoly:
    lead_m = _lead(D._terms)
    lead_c = D._terms[lead_m]
    rem = dict(P._terms)
    quo: dict[Monomial, Scalar] = {}
    # every remainder term is in the variables of P and D
    key = _canonical_key([*P._terms, *D._terms])
    while rem:
        m = max(rem, key=key)
        c = rem[m]
        tm = m - lead_m
        if tm < 0 or tm & _HALF:  # some exponent of tm is negative
            raise ExactDivisionError("not divisible")
        _check_keys((tm,))  # so that tm + dm fits its digits
        tc = _scalar(Fraction(c, lead_c))
        quo[tm] = quo.get(tm, 0) + tc
        for dm, dc in D._terms.items():
            nm = tm + dm
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
    if p._terms[_lead(p._terms)] < 0:
        c = -c
    return p.map_coefficients(lambda a: a / c)


def coefficients_in(p: LaurentPoly, v: str) -> dict[int, LaurentPoly]:
    """``p`` as a polynomial in ``v``: each exponent of ``v`` -> its
    coefficient, one digit read and cleared per term."""
    s = _var_info(v)[4]
    half = _HALF
    out: dict[int, dict[Monomial, Scalar]] = {}
    for m, c in p._terms.items():
        e = ((m + half) >> s & _MASK) - _HALF_DIGIT
        if e:
            m -= e << s
        out.setdefault(e, {})[m] = c
    return {e: LaurentPoly._raw(t) for e, t in out.items()}


def exponent_vectors(p: LaurentPoly, names: Sequence[str]) -> list[tuple[tuple[int, ...], Scalar]]:
    """The terms of ``p`` as (the exponents of ``names``, coefficient), one
    digit read per name; ``p`` must have no other variable.

    >>> exponent_vectors(LaurentPoly.variable("x2", 3) - 2, ["x1", "x2"])
    [((0, 3), 1), ((0, 0), -2)]
    """
    t = p._terms
    if not set(_present(t)) <= set(names):
        raise ValueError(f"{p} has a variable outside {list(names)}")
    shifts = [_var_info(v)[4] for v in names]
    half = _HALF
    return [
        (tuple([((k + half) >> s & _MASK) - _HALF_DIGIT for s in shifts]), c) for k, c in t.items()
    ]


def clear_beta(p: LaurentPoly) -> tuple[LaurentPoly, int]:
    """``p`` = sum_j P_j BETA^j of degree K in :data:`BETA`, at beta =
    q1*q2/(q1+q2)^2, as (N, K) with p = N/(q1+q2)^(2K).

    N = sum_j P_j (q1*q2)^j (q1+q2)^(2K-2j) is expanded in one pass: its
    coefficient of q1^s*q2^(2K-s) is sum_j C(2K-2j, s-j) P_j.  A ``p`` free
    of BETA is returned as it is, with K = 0.  Its split is skipped when
    every key lies in [-2^(s-1), 2^(s-1)), s the shift of BETA's slot: the
    digits below that slot add up to less than 2^(s-1) in absolute value,
    and a nonzero digit at or above it makes the key larger, so such a
    ``p`` has only variables below BETA's slot.
    """
    t = p._terms
    h = 1 << (_VARS[BETA][4] - 1)
    if not t or (-h <= min(t) and max(t) < h):
        return p, 0
    parts = coefficients_in(p, BETA)
    top = max(parts, default=0)
    if not top:
        return p, 0
    if 2 * top >= _LIMIT:
        raise ExponentOverflow(f"(q1+q2)^{2 * top} has an exponent outside [0, {_LIMIT})")
    s1, s2 = _var_info("q1")[4], _var_info("q2")[4]
    out: dict[Monomial, Scalar] = {}
    get = out.get
    for j, part in parts.items():
        width = 2 * (top - j)
        for i in range(width + 1):
            b = _comb(width, i)
            q = ((j + i) << s1) + ((2 * top - j - i) << s2)
            for m, a in part._terms.items():
                m += q
                out[m] = get(m, 0) + b * a
    out = _stored(out, _integral(p._terms))
    _check_keys(out)
    return LaurentPoly._raw(out), top


def _collect_univar(A: dict[int, LaurentPoly], v: str) -> LaurentPoly:
    # The coefficients are free of v, so every (exponent, key) pair gives its
    # own key, and the exponents of v are those of a gcd of valid keys.
    s = _VARS[v][4]
    return LaurentPoly._raw(
        {m + (e << s): c for e, coeff in A.items() for m, c in coeff._terms.items()}
    )


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
    fp, fq = _floor(p._terms), _floor(q._terms)
    P = _normal_positive(p._shift(-fp))
    Q = _normal_positive(q._shift(-fq))
    return _gcd_rec(P, Q)._shift(_floor((fp, fq)))


def _gcd_rec(P: LaurentPoly, Q: LaurentPoly) -> LaurentPoly:
    """:func:`poly_gcd` of two nonzero polynomials with no negative exponent."""
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
                a for c in R.values() for a in c._terms.values()
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
    negative; every new exponent lies between a and b, so no key is checked.
    """
    sign = 1
    if var_sort_key(vb) < var_sort_key(va):  # put the pair in canonical order
        va, vb, sign = vb, va, -1
    sa, sb = _VARS[va][4], _VARS[vb][4]
    step = (1 << sa) - (1 << sb)
    half = _HALF
    out: dict[Monomial, Scalar] = {}
    for m, c in p._terms.items():
        biased = m + half
        a = (biased >> sa & _MASK) - _HALF_DIGIT
        b = (biased >> sb & _MASK) - _HALF_DIGIT
        if a == b:
            continue
        rest = m - (a << sa) - (b << sb)
        c *= sign
        if a < b:
            a, b, c = b, a, -c
        tm = rest + (b << sa) + ((a - 1) << sb)
        for _ in range(a - b):
            nc = out.get(tm, 0) + c
            if nc:
                out[tm] = nc
            else:
                del out[tm]
            tm += step
    return LaurentPoly._raw(out if _integral(p._terms) else _stored(out, False))


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

    :meth:`_normal` is the trusted maker that skips normalization.  Its one
    precondition: ``__init__`` would leave the pair (num, den) as it is, so
    there is no monomial to move, den has content 1 and a positive leading
    coefficient.  A zero numerator is still made 0/1.
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
        shift = 0
        low = None
        for v, e in den.min_exponents().items():
            info = _VARS[v]
            if info[3]:  # an x/u power of the denominator moves up
                shift -= e << info[4]
            else:  # a y/q factor cancels as far as the numerator shares it
                low = num.min_exponents() if low is None else low
                shift -= min(e, low.get(v, 0)) << info[4]
        if shift:
            num = num._shift(shift)
            den = den._shift(shift)
        s = den.content()
        if den._terms[_lead(den._terms)] < 0:
            s = -s
        if s != 1:
            num = num.map_coefficients(lambda x: x / s)
            den = den.map_coefficients(lambda x: x / s)
        self.num = num
        self.den = den

    @classmethod
    def _normal(cls, num: LaurentPoly, den: LaurentPoly) -> "RationalFunction":
        """num/den as it stands, for a pair the caller knows is normal (see
        the class docstring); a zero ``num`` still gives 0/1."""
        f = object.__new__(cls)
        if num.is_zero:
            num, den = _P_ZERO, _P_ONE
        f.num = num
        f.den = den
        return f

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
    def variable(cls, v: str) -> "RationalFunction":
        return cls(LaurentPoly.variable(v))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

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
        return RationalFunction._normal(-self.num, self.den)

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


def as_rf(f: "LaurentPoly | RationalFunction") -> RationalFunction:
    """``f`` as a rational function: a LaurentPoly p is p/1."""
    return RationalFunction(f) if isinstance(f, LaurentPoly) else f


def narrow(f: "LaurentPoly | RationalFunction") -> "LaurentPoly | RationalFunction":
    """``f`` as a LaurentPoly when it is one: the inverse of :func:`as_rf`."""
    return f.num if isinstance(f, RationalFunction) and f.den.is_one else f


# ----------------------------------------------------------------------
# substitution


def rename_poly(p: LaurentPoly, varmap: Mapping[str, str]) -> LaurentPoly:
    """Replace variables by variables (exponents of merged targets add up).

    Each renamed variable's digit moves to its target's slot (a variable
    outside the map is its own target).  Where several exponents meet in
    one slot their sum is checked against the range, before it could carry;
    every distinct image is validated, also one whose coefficients cancel.
    """
    if not varmap:
        return p
    sources: dict[str, list[int]] = {}  # target -> shifts of the variables moved onto it
    for v, t in varmap.items():
        if v != t:
            sources.setdefault(t, []).append(_var_info(v)[4])
    # (target shift, source shifts, whether the target keeps its own exponent)
    groups = [(_var_info(t)[4], shifts, varmap.get(t, t) == t) for t, shifts in sources.items()]
    half = _HALF
    sums: dict[Monomial, Scalar] = {}
    get = sums.get
    for m, c in p._terms.items():
        biased = m + half
        for s, shifts, kept in groups:
            total = 0
            for r in shifts:
                e = (biased >> r & _MASK) - _HALF_DIGIT
                if e:
                    m -= e << r
                    total += e
            if total:
                m += total << s
                if kept:
                    total += (biased >> s & _MASK) - _HALF_DIGIT
                if not -_LIMIT <= total < _LIMIT:
                    raise ExponentOverflow(f"merged exponent {total} out of range")
        sums[m] = get(m, 0) + c
    _check_keys(sums)
    return LaurentPoly._raw(_stored(sums, _integral(p._terms)))


def rename_rf(f: LaurentPoly | RationalFunction, varmap: Mapping[str, str]) -> RationalFunction:
    """Rename the variables of ``f``; a LaurentPoly is renamed as f/1."""
    f = as_rf(f)
    if not varmap:
        return f
    return RationalFunction(rename_poly(f.num, varmap), rename_poly(f.den, varmap))


def substitute_poly(
    p: LaurentPoly, images: Mapping[str, LaurentPoly | RationalFunction]
) -> RationalFunction:
    """Image of a polynomial under a map from variables to values, each a
    LaurentPoly or a RationalFunction.

    Each power of an image is taken once, in the ring of its value: a
    Laurent image (a RationalFunction over 1 is narrowed) keeps its
    nonnegative powers in LaurentPoly, and a negative power is the
    rational function as_rf(img)^e, narrowed when it is a Laurent
    polynomial.  The terms are multiplied and summed as they come, so
    they leave LaurentPoly only where a power has a denominator.
    """
    powers: dict[tuple[str, int], LaurentPoly | RationalFunction] = {}
    total = _P_ZERO
    for m, c in p:
        term = LaurentPoly.constant(c)
        for item in m:
            if item not in powers:
                v, e = item
                img = narrow(images.get(v, LaurentPoly.variable(v)))
                if e < 0 and img.is_zero:
                    raise SubstitutionSingular(f"substituting 0 for inverted {v}")
                powers[item] = img ** e if e >= 0 else narrow(as_rf(img) ** e)
            term = term * powers[item]
        total = total + term
    return as_rf(total)


def substitute(
    f: LaurentPoly | RationalFunction, images: Mapping[str, LaurentPoly | RationalFunction]
) -> RationalFunction:
    """Image of ``f`` under the field homomorphism induced by ``images``, each
    image a LaurentPoly or a RationalFunction; a LaurentPoly ``f`` is taken
    as the rational function f/1.

    Raises :class:`SubstitutionSingular` when the denominator goes to zero.
    """
    f = as_rf(f)
    num = substitute_poly(f.num, images)
    den = substitute_poly(f.den, images)
    if den.is_zero:
        raise SubstitutionSingular("denominator vanishes under substitution")
    return num / den


def lowest_homogeneous_component(p: LaurentPoly, vars: Iterable[str]) -> LaurentPoly:
    """Sum of the terms of minimal total degree in the given variables."""
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial has no lowest component")
    shifts = [_VARS[v][4] for v in set(vars) if v in _VARS]
    half = _HALF
    best: int | None = None
    groups: dict[int, dict[Monomial, Scalar]] = {}
    for m, c in p._terms.items():
        biased = m + half
        d = 0
        for s in shifts:
            e = (biased >> s & _MASK) - _HALF_DIGIT
            if e < 0:
                raise ValueError("lowest component needs nonnegative exponents")
            d += e
        groups.setdefault(d, {})[m] = c
        if best is None or d < best:
            best = d
    return LaurentPoly._raw(groups[best])


# ----------------------------------------------------------------------
# text rendering (the parsing side lives in serialize.py)


def format_poly(p: LaurentPoly, latex: bool = False) -> str:
    """Deterministic text for a polynomial; parses back via the CLI grammar.

    The terms come in rendering order (:func:`_display_order`), and each
    exponent is read from its slot with the variables in display order."""
    t = p._terms
    if not t:
        return "0"
    names, keys = _display_order(t)
    sep = "" if latex else "*"
    # (slot shift, the variable's text, its text to a power)
    labels = []
    for v in names:
        info = _VARS[v]
        label = "{}_{}".format(*info[0]) if latex else v
        labels.append((info[4], label, label + ("^{{{}}}" if latex else "^{}")))
    half = _HALF
    pieces: list[str] = []
    for k in keys:
        c = t[k]
        b = k + half
        mono = []
        for s, label, power in labels:
            e = (b >> s & _MASK) - _HALF_DIGIT
            if e:
                mono.append(label if e == 1 else power.format(e))
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = _format_scalar(mag, latex)
        elif mag == 1:
            body = sep.join(mono)
        else:
            body = f"{_format_scalar(mag, latex)}{sep}{sep.join(mono)}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"{' - ' if neg else ' + '}{body}" if not latex else
                          f"{'-' if neg else '+'}{body}")
    return "".join(pieces)


def _format_scalar(c: Scalar, latex: bool) -> str:
    if latex and c.denominator != 1:
        return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"
    return str(c)


def format_rf(f: LaurentPoly | RationalFunction, latex: bool = False) -> str:
    """Deterministic text for a rational function; a LaurentPoly is f/1."""
    f = as_rf(f)
    if f.den.is_one:
        return format_poly(f.num, latex)
    if latex:
        return f"\\frac{{{format_poly(f.num, True)}}}{{{format_poly(f.den, True)}}}"
    return f"({format_poly(f.num)})/({format_poly(f.den)})"
