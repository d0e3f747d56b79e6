"""Permutations of {1..n} in one-line notation, reduced words, Rothe diagrams.

The window (one-line notation) is the single source of truth: a permutation
``mu`` maps position ``i`` to the value ``mu.window[i-1]``.  Right
multiplication by the simple transposition ``s_j`` swaps window positions
``j`` and ``j+1``; left multiplication swaps the values ``j`` and ``j+1``.

There is one object per window: every constructor, product and neighbour
returns the entry of a module-wide table, and pickle, ``copy`` and
``deepcopy`` return it too.  So two permutations are equal exactly when they
are the same object, and equality and hashing are the identity defaults,
which dict lookups keyed by permutations take without a Python call.  Each
object caches its structure the first time it is asked for: its right
neighbours ``mu s_j`` (the edges of the Cayley graph), its inverse, length,
descents and canonical reduced word.
The table keeps every window ever built; the enumerations of
:func:`all_permutations` up to :data:`MAX_RANK` hold at most
1! + 2! + ... + 6! = 873 objects.  :func:`weak_order_walk` is the one
traversal of the weak-order tree (the parent of mu is mu s_j, j its first
descent) that builds the Yang-Baxter basis, the omega-rows of the form and
the divided-difference tables.

A Rothe diagram is the plain tuple of its boxes in reading order
(:func:`rothe_diagram`).

>>> mu = Permutation.from_string("35142")
>>> mu.length()
6
>>> str(mu * Permutation.simple(5, 2))
'31542'
>>> Permutation.from_string("321").reduced_word()
(1, 2, 1)
>>> mu.times_simple(2) is Permutation.from_string("31542")
True
"""

from __future__ import annotations

from itertools import permutations as _itperms
from typing import Callable, Iterator, NamedTuple, TypeVar

from .errors import IndexOutOfRange, RankMismatch, RankOutOfRange

_V = TypeVar("_V")

__all__ = [
    "Permutation",
    "RotheBox",
    "all_permutations",
    "all_reduced_words",
    "check_rank",
    "weak_order_walk",
    "MAX_RANK",
]

# The desk-scale rank guard of every enumeration of S_n, and so the bound
# of the Schubert and Grothendieck tables and both transitions.
MAX_RANK = 6

# The one permutation of each window.
_INTERNED: dict[tuple[int, ...], "Permutation"] = {}
# S_n sorted by (length, window), once per n.
_SORTED: dict[int, tuple["Permutation", ...]] = {}


class Permutation:
    """An element of the symmetric group S_n, indexed from 1; one object per
    window (see the module docstring)."""

    __slots__ = (
        "window",
        "n",
        "_right",
        "_inverse",
        "_length",
        "_descents",
        "_reduced_word",
    )

    def __new__(cls, window):
        w = tuple(int(v) for v in window)
        mu = _INTERNED.get(w)
        if mu is not None:
            return mu
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation window: {w}")
        return cls._trusted(w)

    @classmethod
    def _trusted(cls, window: tuple[int, ...]) -> "Permutation":
        """The permutation with ``window``, unchecked: for windows built
        from valid permutations, which are valid by construction."""
        mu = _INTERNED.get(window)
        if mu is None:
            mu = object.__new__(cls)
            mu.window = window
            mu.n = len(window)
            mu._right = mu._inverse = mu._length = None
            mu._descents = mu._reduced_word = None
            # a construction racing this one gets the same object
            mu = _INTERNED.setdefault(window, mu)
        return mu

    def __reduce__(self):
        return (Permutation, (self.window,))

    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(range(n, 0, -1))

    @classmethod
    def simple(cls, n: int, j: int) -> "Permutation":
        return cls.identity(n).times_simple(j)

    @classmethod
    def from_string(cls, s: str) -> "Permutation":
        """Parse a window given as a digit string such as "35142" (n <= 9)
        or as comma-separated entries such as "2,1,3" or "2, 1, 3".

        Each entry is written in ASCII digits with no leading zero, so "٢١"
        and "2,01" do not alias 21.
        """
        if "," in s:
            entries = [t.strip() for t in s.split(",")]
        else:
            entries = list(s.strip())
        if not entries:
            raise ValueError(f"not a permutation window: {s!r}")
        for t in entries:
            if not (t.isascii() and t.isdigit()) or t[0] == "0":
                raise ValueError(f"not a permutation window: {s!r}")
        return cls(int(t) for t in entries)

    # ------------------------------------------------------------------

    def __call__(self, i: int) -> int:
        return self.window[i - 1]

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.window)
        return ",".join(str(v) for v in self.window)

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self∘other)(i) = self(other(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise RankMismatch(f"cannot compose S_{self.n} with S_{other.n}")
        return Permutation._trusted(tuple(self.window[v - 1] for v in other.window))

    def inverse(self) -> "Permutation":
        inv = self._inverse
        if inv is None:
            w = [0] * self.n
            for i, v in enumerate(self.window):
                w[v - 1] = i + 1
            inv = self._inverse = Permutation._trusted(tuple(w))
            inv._inverse = self
        return inv

    @property
    def is_identity(self) -> bool:
        return self.length() == 0

    def length(self) -> int:
        """Number of inversions #{(i, j) : i < j, mu(i) > mu(j)}."""
        k = self._length
        if k is None:
            w, n = self.window, self.n
            k = self._length = sum(
                1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j]
            )
        return k

    def descents(self) -> tuple[int, ...]:
        """Positions j with mu(j) > mu(j+1), i.e. length(mu*s_j) < length(mu)."""
        d = self._descents
        if d is None:
            w = self.window
            d = self._descents = tuple(j for j in range(1, self.n) if w[j - 1] > w[j])
        return d

    def times_simple(self, j: int) -> "Permutation":
        """Right multiplication by s_j: swap window positions j, j+1."""
        if not 1 <= j <= self.n - 1:
            raise IndexOutOfRange(f"generator index {j} outside 1..{self.n - 1}")
        right = self._right
        if right is None:
            w = self.window
            right = self._right = tuple(
                Permutation._trusted(w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :])
                for i in range(1, self.n)
            )
        return right[j - 1]

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word: the product s_{i1}...s_{ir} equals ``self``.

        Convention: repeatedly move the largest misplaced value to its slot
        with adjacent transpositions; the recorded sorting word, reversed,
        is the canonical word.  Any deterministic choice would do, since all
        downstream constructions are reduced-word independent.
        """
        word = self._reduced_word
        if word is None:
            w = list(self.window)
            sorting: list[int] = []
            for value in range(len(w), 0, -1):
                pos = w.index(value) + 1
                for j in range(pos, value):
                    w[j - 1], w[j] = w[j], w[j - 1]
                    sorting.append(j)
            word = self._reduced_word = tuple(reversed(sorting))
        return word

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.length(), self.window)


def check_rank(n: int) -> None:
    """The desk-scale guard: RankOutOfRange unless 1 <= n <= :data:`MAX_RANK`."""
    if not 1 <= n <= MAX_RANK:
        raise RankOutOfRange(f"rank {n} outside 1..{MAX_RANK}")


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n sorted by (length, window), as a fresh list; guarded by
    :func:`check_rank`."""
    check_rank(n)
    perms = _SORTED.get(n)
    if perms is None:
        perms = [Permutation._trusted(w) for w in _itperms(range(1, n + 1))]
        perms.sort(key=Permutation.sort_key)
        perms = _SORTED.setdefault(n, tuple(perms))
    return list(perms)


def weak_order_walk(
    n: int, root: _V, step: Callable[[_V, Permutation, int], _V]
) -> Iterator[tuple[Permutation, _V]]:
    """(mu, value) for every mu in S_n, in window (lexicographic) order.

    The identity's value is ``root``; any other mu, with first descent j
    and nu = mu s_j, gets ``step(value of nu, nu, j)``.  The window of nu is
    that of mu with positions j, j+1 put in increasing order, so nu comes
    earlier; a value is dropped once its last child is built (at most 36
    are held at n = 5, 216 at n = 6).  The rank is checked at the call.
    """
    perms = sorted(all_permutations(n), key=lambda mu: mu.window)
    parent = {mu: (mu.times_simple(j), j) for mu in perms[1:] for j in mu.descents()[:1]}
    last_child = {nu: mu for mu, (nu, _) in parent.items()}

    def walk(value: _V) -> Iterator[tuple[Permutation, _V]]:
        alive = {}
        for mu in perms:
            if mu in parent:
                nu, j = parent[mu]
                value = step(alive[nu], nu, j)
                if last_child[nu] is mu:
                    del alive[nu]
            if mu in last_child:
                alive[mu] = value
            yield mu, value

    return walk(root)


def all_reduced_words(mu: Permutation) -> list[tuple[int, ...]]:
    """Every reduced word of ``mu`` (exponential; meant for n <= 4 checks)."""
    if mu.is_identity:
        return [()]
    out: list[tuple[int, ...]] = []
    for j in mu.descents():
        for w in all_reduced_words(mu.times_simple(j)):
            out.append(w + (j,))
    return out


class RotheBox(NamedTuple):
    """One box of a Rothe diagram.

    The box sits at Cartesian coordinates (column i, height mu(j)) where
    (i, j) is the inversion producing it; ``generator`` is the index k of the
    elementary factor the box carries: i plus the number of boxes below it
    in its column, i + #{k > i : mu(k) < mu(j)}.
    """

    row: int
    i: int
    j: int
    generator: int


def rothe_diagram(mu: Permutation) -> tuple[RotheBox, ...]:
    """The boxes of the Rothe diagram {(i, mu(j)) : i < j, mu(i) > mu(j)}, one
    per inversion of mu, in reading order.

    Reading order is left to right within a row, proceeding from the top row
    (largest second coordinate) down; this is the order in which the boxes'
    elementary factors multiply out to the Yang-Baxter element.
    """
    w = mu.window
    n = mu.n
    boxes = [
        RotheBox(row=w[j - 1], i=i, j=j, generator=i + sum(x < w[j - 1] for x in w[i:]))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if w[i - 1] > w[j - 1]
    ]
    boxes.sort(key=lambda b: (-b.row, b.i))
    return tuple(boxes)
