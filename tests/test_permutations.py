"""Symmetric-group combinatorics: windows, words, Rothe diagrams."""

import copy
import itertools
import pickle
import weakref

import pytest

from ybhecke.errors import IndexOutOfRange, RankMismatch, RankOutOfRange
from ybhecke.permutations import (
    Permutation,
    all_permutations,
    all_reduced_words,
    rothe_diagram,
    weak_order_walk,
)

P = Permutation.from_string


def brute_length(mu):
    w = mu.window
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def evaluate_word(n, word):
    mu = Permutation.identity(n)
    for j in word:
        mu = mu.times_simple(j)
    return mu


def test_compose_examples():
    assert P("213") * P("213") == P("123")
    omega = P("321")
    assert omega * omega.inverse() == P("123")
    with pytest.raises(RankMismatch):
        P("213") * P("1234")


def test_right_simple_multiplication_drops_length():
    mu = P("35142")
    nu = mu.times_simple(2)
    assert nu == P("31542")
    # derived by brute-force inversion count
    assert (brute_length(mu), brute_length(nu)) == (6, 5)
    assert mu.length() == 6 and nu.length() == 5


def test_inverse_involution_and_length():
    for mu in all_permutations(4):
        assert mu.inverse().inverse() == mu
        assert mu.length() == mu.inverse().length()


def test_enumerate():
    assert [str(p) for p in all_permutations(1)] == ["1"]
    ps = all_permutations(3)
    assert len(ps) == 6
    assert ps[0] == P("123") and ps[-1] == P("321")
    with pytest.raises(RankOutOfRange):
        all_permutations(9)
    with pytest.raises(RankOutOfRange):
        all_permutations(0)


def test_poincare_polynomial_coefficients():
    # length generating function of S_4 is (1+q)(1+q+q^2)(1+q+q^2+q^3)
    counts = {}
    for mu in all_permutations(4):
        counts[mu.length()] = counts.get(mu.length(), 0) + 1
    assert [counts.get(k, 0) for k in range(7)] == [1, 3, 5, 6, 5, 3, 1]


def test_poincare_product_formula_up_to_5():
    for n in range(1, 6):
        coeffs = [1]
        for k in range(2, n + 1):
            new = [0] * (len(coeffs) + k - 1)
            for i, c in enumerate(coeffs):
                for j in range(k):
                    new[i + j] += c
            coeffs = new
        counts = {}
        for mu in all_permutations(n):
            counts[mu.length()] = counts.get(mu.length(), 0) + 1
        assert [counts.get(k, 0) for k in range(len(coeffs))] == coeffs


def test_reduced_word_identity_and_omega():
    assert Permutation.identity(4).reduced_word() == ()
    assert P("321").reduced_word() == (1, 2, 1)


def test_reduced_words_evaluate_back():
    for mu in all_permutations(4):
        word = mu.reduced_word()
        assert len(word) == mu.length()
        assert evaluate_word(4, word) == mu


def test_all_reduced_words_counts():
    assert len(all_reduced_words(P("321"))) == 2
    assert len(all_reduced_words(P("4321"))) == 16
    for word in all_reduced_words(P("4231")):
        assert evaluate_word(4, word) == P("4231")
        assert len(word) == P("4231").length()


def test_length_changes_by_one():
    for mu in all_permutations(4):
        for j in range(1, 4):
            assert abs(mu.times_simple(j).length() - mu.length()) == 1


def test_generator_index_is_guarded():
    with pytest.raises(IndexOutOfRange):
        P("321").times_simple(3)
    with pytest.raises(IndexOutOfRange):
        P("321").times_simple(0)
    with pytest.raises(IndexOutOfRange):
        Permutation.simple(3, 5)


def test_rothe_identity_empty():
    assert len(rothe_diagram(Permutation.identity(4))) == 0


def test_rothe_diagram_is_a_tuple_of_one_box_per_inversion():
    for mu in all_permutations(4):
        diagram = rothe_diagram(mu)
        assert type(diagram) is tuple and len(diagram) == mu.length(), mu


def test_a_rothe_box_is_an_immutable_record():
    box = rothe_diagram(P("21"))[0]
    assert repr(box) == "RotheBox(row=1, i=1, j=2, generator=1)"
    with pytest.raises(AttributeError):
        box.generator = 2
    assert box.generator == 1


def test_rothe_35142_reading_order():
    mu = P("35142")
    diagram = rothe_diagram(mu)
    assert len(diagram) == mu.length() == 6
    # reading the boxes yields the factor digits (mu(i), mu(j)) and T-indices
    reading = [(mu(b.i), mu(b.j), b.generator) for b in diagram]
    assert reading == [
        (5, 4, 4),
        (3, 2, 2),
        (5, 2, 3),
        (4, 2, 4),
        (3, 1, 1),
        (5, 1, 2),
    ]


def test_rothe_box_count_matches_length_s5():
    for mu in all_permutations(5):
        diagram = rothe_diagram(mu)
        assert len(diagram) == mu.length()
        # boxes are exactly the inversion set {(i, mu(j)) : i<j, mu(i)>mu(j)}
        got = {(b.i, b.row) for b in diagram}
        expect = {
            (i, mu(j))
            for i in range(1, 6)
            for j in range(i + 1, 6)
            if mu(i) > mu(j)
        }
        assert got == expect


def test_rothe_generator_indices_increase_in_columns():
    for mu in all_permutations(5):
        cols = {}
        for b in rothe_diagram(mu):
            cols.setdefault(b.i, []).append(b)
        for col, boxes in cols.items():
            boxes.sort(key=lambda b: b.row)
            assert [b.generator for b in boxes] == list(
                range(col, col + len(boxes))
            )


def test_string_roundtrip():
    assert str(P("35142")) == "35142"
    assert P("35142") == Permutation((3, 5, 1, 4, 2))


def test_comma_form_roundtrip():
    assert P("2,1,3") == P("2, 1, 3") == P(" 213 ") == P("213")
    mu = Permutation((2, 10, 1, 3, 4, 5, 6, 7, 8, 9))
    assert str(mu) == "2,10,1,3,4,5,6,7,8,9"
    assert P(str(mu)) == mu


@pytest.mark.parametrize(
    "spelling", ["٢١", "２１", "2,01", "02,1", "1,2,", "2,,1", "2 1", "21x", "", " "]
)
def test_from_string_accepts_only_the_canonical_spelling(spelling):
    # int() reads any Unicode decimal digit and leading zeros, so these
    # spellings used to alias 21 or 12
    with pytest.raises(ValueError):
        P(spelling)


@pytest.mark.parametrize("window", [(1, 1), (0, 1), (2, 3), (1, 2, 4), (3, 1, 3)])
def test_a_bad_window_still_raises(window):
    with pytest.raises(ValueError):
        Permutation(window)


def test_products_give_what_the_checked_constructor_gives():
    # times_simple, * and inverse build their windows unchecked
    perms = all_permutations(4)
    for mu in perms:
        built = [mu.inverse()]
        for j in (1, 2, 3):
            built.append(mu.times_simple(j))
            assert mu.times_simple(j) == mu * Permutation.simple(4, j)
        built += [mu * nu for nu in perms]
        for nu in built:
            assert type(nu.window) is tuple
            assert Permutation(nu.window) == nu and hash(Permutation(nu.window)) == hash(nu)
        assert mu * mu.inverse() == Permutation.identity(4)


def test_rank_guard_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("YB_HECKE_MAX_N", "8")
    with pytest.raises(RankOutOfRange):
        all_permutations(7)


# ----------------------------------------------------------------------
# one object per window


def test_equality_and_hash_are_the_identity_defaults():
    assert Permutation.__eq__ is object.__eq__
    assert Permutation.__hash__ is object.__hash__


def test_every_constructor_returns_the_one_object_of_its_window():
    mu = P("35142")
    assert Permutation((3, 5, 1, 4, 2)) is mu
    assert Permutation([3, 5, 1, 4, 2]) is mu
    assert Permutation(str(v) for v in (3, 5, 1, 4, 2)) is mu
    assert P("3,5,1,4,2") is mu
    assert Permutation._trusted((3, 5, 1, 4, 2)) is mu
    assert Permutation.identity(5) is P("12345")
    assert Permutation.longest(5) is P("54321")
    assert Permutation.simple(5, 2) is P("13245")
    assert mu * Permutation.identity(5) is mu
    assert mu * Permutation.simple(5, 2) is P("31542")
    assert P("31542").inverse() is P("31542").inverse() is P("25143")
    assert mu.times_simple(2) is P("31542")
    assert all_permutations(5)[-1] is Permutation.longest(5)


@pytest.mark.parametrize("clone", [
    lambda mu: pickle.loads(pickle.dumps(mu)),
    lambda mu: pickle.loads(pickle.dumps(mu, protocol=0)),
    copy.copy,
    copy.deepcopy,
])
def test_pickle_and_copies_return_the_same_object(clone):
    for mu in all_permutations(4):
        assert clone(mu) is mu
    pair = {P("213"): [P("321")]}
    cloned = clone(pair)
    assert list(cloned) == [P("213")] and cloned[P("213")][0] is P("321")


def _scratch_reduced_word(w):
    w, sorting = list(w), []
    for value in range(len(w), 0, -1):
        for j in range(w.index(value) + 1, value):
            w[j - 1], w[j] = w[j], w[j - 1]
            sorting.append(j)
    return tuple(reversed(sorting))


def test_cached_structure_agrees_with_a_computation_from_the_window():
    # each method is asked twice, so a wrong cached value fails on either call
    for mu in all_permutations(5):
        w = mu.window
        n = len(w)
        expect = {
            "length": brute_length(mu),
            "descents": tuple(j for j in range(1, n) if w[j - 1] > w[j]),
            "inverse": tuple(w.index(v) + 1 for v in range(1, n + 1)),
            "reduced_word": _scratch_reduced_word(w),
        }
        for _ in range(2):
            assert mu.length() == expect["length"]
            assert mu.descents() == expect["descents"]
            assert mu.inverse().window == expect["inverse"]
            assert mu.reduced_word() == expect["reduced_word"]
            assert mu.sort_key() == (expect["length"], w)
            assert mu.is_identity == (w == tuple(range(1, n + 1)))
            for j in range(1, n):
                right = list(w)
                right[j - 1], right[j] = right[j], right[j - 1]
                assert mu.times_simple(j).window == tuple(right)


@pytest.mark.parametrize("n", range(1, 7))
def test_all_permutations_is_sorted_by_length_then_window(n):
    # gram_matrix and the printed tables and matrices read S_n in this
    # order; the recursions walk their own window order (weak_order_walk),
    # so the neighbours below being built earlier is a property of the
    # length order that nothing relies on
    windows = sorted(itertools.permutations(range(1, n + 1)),
                     key=lambda w: (brute_length(Permutation(w)), w))
    perms = all_permutations(n)
    assert [mu.window for mu in perms] == windows
    place = {w: k for k, w in enumerate(windows)}
    for k, w in enumerate(windows[1:], 1):
        j = next(j for j in range(1, n) if w[j - 1] > w[j])
        right = list(w)
        right[j - 1], right[j] = right[j], right[j - 1]
        i = next(i for i in range(1, n) if w.index(i) > w.index(i + 1))
        left = tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)
        assert place[tuple(right)] < k and place[left] < k, w


def test_all_permutations_returns_a_fresh_list():
    first = all_permutations(3)
    expect = [p.window for p in first]
    first.reverse()
    first.append(P("4321"))
    again = all_permutations(3)
    assert [p.window for p in again] == expect
    assert again is not first


# ----------------------------------------------------------------------
# the weak-order walk


def append_letter(word, nu, j):
    return word + (j,)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_walk_yields_s_n_in_window_order(n):
    walk = weak_order_walk(n, (), append_letter)
    assert [mu.window for mu, _ in walk] == list(itertools.permutations(range(1, n + 1)))


@pytest.mark.parametrize("n", range(1, 7))
def test_the_walk_steps_each_value_at_the_first_descent(n):
    # from the empty word, the value of mu is a reduced word of mu that
    # ends in its first descent
    for mu, word in weak_order_walk(n, (), append_letter):
        assert evaluate_word(n, word) is mu and len(word) == mu.length(), mu
        assert word[-1:] == mu.descents()[:1], mu


@pytest.mark.parametrize("n", [0, 7])
def test_the_walk_checks_its_rank_at_the_call(n):
    def step(value, nu, j):
        raise AssertionError(f"stepped at n={n}")

    with pytest.raises(RankOutOfRange, match=f"^rank {n} outside 1..6$"):
        weak_order_walk(n, (), step)


class Value:
    """A value that counts how many of its kind are alive."""

    alive = 0

    def __init__(self):
        Value.alive += 1
        weakref.finalize(self, Value.died)

    @staticmethod
    def died():
        Value.alive -= 1


@pytest.mark.parametrize("n,most", [(5, 36), (6, 216)])
def test_the_walk_drops_a_value_after_its_last_child(monkeypatch, n, most):
    # counted at each value yielded: the values still waiting for a child,
    # plus the one just yielded
    monkeypatch.setattr(Value, "alive", 0)
    peak = 0
    for _, value in weak_order_walk(n, Value(), lambda value, nu, j: Value()):
        peak = max(peak, Value.alive)
    del value
    assert peak <= most and Value.alive == 0
