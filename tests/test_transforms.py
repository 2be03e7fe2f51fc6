import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from hankelforge import InexactDivisionError, binomial_transform, iterated_transform, prefix, transforms
from hankelforge.hankel import det_bareiss
from hankelforge.sequences import G_SUM, franel

from oracle_helpers import CATALOG, inverse_binomial_transform, iterated_transform_sum


def test_transform_examples():
    assert binomial_transform([1, 2, 10, 56]) == [1, 3, 15, 93]
    assert binomial_transform([1, 0, 0, 0]) == [1, 1, 1, 1]
    assert binomial_transform([1, 5, 73, 1445]) == [1, 6, 84, 1680]


def test_inverse_examples():
    assert inverse_binomial_transform([1, 3, 15, 93]) == [1, 2, 10, 56]
    assert inverse_binomial_transform([1, 1, 1]) == [1, 0, 0]
    assert inverse_binomial_transform([1, 6, 84, 1680]) == [1, 5, 73, 1445]


def test_iterated_examples():
    # D'=[1,5,37], D''=[1,6,48]; entries at indices >= 1 divisible by 3
    assert iterated_transform([1, 4, 28], 2) == [1, 6, 48]
    x = [3, 1, 4, 1, 5]
    assert iterated_transform(x, 0) == x and iterated_transform(x, 0) is not x
    assert iterated_transform([3, -1, 7], 0, 3) == [0, 2, 1]
    assert iterated_transform([1, 3, 19], 2) == [1, 5, 35]


def test_round_trip_random():
    rng = random.Random(20260809)
    for length in range(1, 51):
        x = [rng.randint(-10**9, 10**9) for _ in range(length)]
        assert inverse_binomial_transform(binomial_transform(x)) == x
        assert binomial_transform(inverse_binomial_transform(x)) == x


def test_iterated_matches_repeated_single():
    x = [1, 4, 28, 256, 2716]
    assert iterated_transform(x, 1) == binomial_transform(x)
    assert iterated_transform(x, 3) == binomial_transform(
        binomial_transform(binomial_transform(x))
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=40),
    st.integers(0, 5),
)
def test_iterated_transform_matches_defining_sum(x, k):
    assert iterated_transform(x, k) == iterated_transform_sum(x, k)


# The exact table makes a list of its running column every 8 columns, so
# lengths 1..25 cross the lists made at 8, 16 and 24 and end on either side of
# each; k = 2^64 widens every entry by up to 24*64 bits before the divisions.
@pytest.mark.parametrize("k", [1, 2, 3, 10, 2**64])
def test_exact_path_matches_defining_sum_at_every_length(k):
    rng = random.Random(k)
    for length in range(1, 26):
        x = [(-1) ** j * rng.randint(1, 10**12) for j in range(length)]
        kept = list(x)
        expected = iterated_transform_sum(x, k)
        assert iterated_transform(x, k) == expected
        assert iterated_transform(tuple(x), k) == expected
        assert x == kept


# The two routes at the size claims-long runs: f(3)'s prefix to n = 600, exact
# then reduced, against the packed residue table, which folds its lanes.
@pytest.mark.parametrize("m", [2, 5, 24, 2**61 - 1])
def test_exact_and_residue_paths_agree_on_a_long_prefix(m):
    x = prefix(franel(3), 600).terms
    for k in (1, 2):
        assert iterated_transform(x, k, m) == [y % m for y in iterated_transform(x, k)]


# One scaled entry of column 0 off by one, at each place whose division is by a
# power of k above 1: every such division must see the remainder.
@pytest.mark.parametrize("t", range(9))
def test_every_division_of_the_exact_table_is_checked(monkeypatch, t):
    x = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3]
    calls = []

    def off_by_one(column, initial):
        calls.append(initial)
        out = accumulate(column, initial=initial)
        if len(calls) < len(x):
            return out
        return (h + (i == t) for i, h in enumerate(out))  # column 0, the last one built

    monkeypatch.setattr(transforms, "accumulate", off_by_one)
    with pytest.raises(InexactDivisionError):
        iterated_transform(x, 2)


def test_barrucand_identity():
    f = prefix(franel(3), 60).terms
    g = prefix(G_SUM, 60).terms
    assert binomial_transform(f) == list(g)


def test_errors():
    with pytest.raises(ValueError):
        binomial_transform([])
    with pytest.raises(ValueError):
        inverse_binomial_transform([])
    with pytest.raises(ValueError):
        iterated_transform([1], -1)


@pytest.mark.parametrize("seq", CATALOG)
def test_hankel_determinant_invariance(seq):
    terms = prefix(seq, 16).terms
    transformed = binomial_transform(terms)
    for n in range(9):
        d0 = det_bareiss(terms[: 2 * n + 1]).value
        d1 = det_bareiss(transformed[: 2 * n + 1]).value
        assert d0 == d1


def test_hankel_determinant_invariance_random():
    rng = random.Random(7)
    for _ in range(20):
        x = [1] + [rng.randint(-50, 50) for _ in range(16)]
        y = binomial_transform(x)
        for n in range(9):
            assert det_bareiss(x[: 2 * n + 1]).value == det_bareiss(y[: 2 * n + 1]).value


# Transforms are Z-linear, so reducing the input mod m first must leave every
# residue of the output unchanged; the congruence claims rely on this.
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=25),
    st.integers(2, 48),
    st.integers(0, 3),
)
def test_transform_of_residues_agrees_mod_m(x, m, k):
    reduced = [v % m for v in x]
    for full, small in (
        (iterated_transform(x, k), iterated_transform(reduced, k)),
        (iterated_transform(x, k), iterated_transform(reduced, k, modulus=m)),
        (inverse_binomial_transform(x), inverse_binomial_transform(reduced)),
    ):
        assert [v % m for v in full] == [v % m for v in small]


def test_error_messages_check_count_before_length():
    with pytest.raises(ValueError, match="iteration count must be at least 0"):
        iterated_transform([], -1)
    with pytest.raises(ValueError, match="input sequence must be non-empty"):
        iterated_transform([], 0)
    with pytest.raises(ValueError, match="input sequence must be non-empty"):
        binomial_transform([])


# Lengths to 120 make the modulus path fold its lanes part-way through (every
# J rows); m runs from 1, where every residue is 0, to above 2^64, and k to 2^70,
# far above most m: the lane width depends on the bits of both m and k mod m.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=120),
    st.one_of(st.integers(0, 5), st.integers(0, 2**70)),
    st.one_of(st.integers(1, 64), st.integers(1, 2**64 + 13)),
)
def test_modulus_path_matches_reduced_exact_transform(x, k, m):
    assert iterated_transform(x, k, m) == [y % m for y in iterated_transform(x, k)]


# The widest lanes the packed residue table meets: every residue m - 1 and
# k = -1 (mod m), so a row multiplies each lane by m, the most it can.  Fifty
# rows pass at least a dozen folds for each m > 1, and a table that skipped its
# folds, or sized its lanes from m alone, would carry one lane into the next.
@pytest.mark.parametrize("m", [1, 2, 3, 5, 24, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 13, 2**100 + 277])
@pytest.mark.parametrize("times", [1, 2])
def test_modulus_path_on_the_widest_lanes(m, times):
    x, k = [m - 1] * 50, times * m - 1
    assert iterated_transform(x, k, m) == [y % m for y in iterated_transform(x, k)]


# A float would run the table in floats, and a bool would run as 0 or 1.
@pytest.mark.parametrize("args, message", [
    (([1, 2, 3], 2.0), "iteration count must be an integer"),
    (([1, 2, 3], True), "iteration count must be an integer"),
    (([1, 2, 3], 2.0, 7), "iteration count must be an integer"),
    (([1, 2, 3], True, 7), "iteration count must be an integer"),
    (([1.5, 2, 3], 1), "entries must be exact integers"),
    (([1.5, 2, 3], 1, 7), "entries must be exact integers"),
    (([1, True, 3], 2), "entries must be exact integers"),
    (([1, True, 3], 0, 7), "entries must be exact integers"),
    (([1, 2, 3], 2, 7.0), "modulus must be an integer"),
    (([1, 2, 3], 2, True), "modulus must be an integer"),
])
def test_transform_refuses_what_is_not_an_int(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        iterated_transform(*args)


# A dict was read as its keys and bytes as their byte values; None and an
# iterator raised TypeError from len.
@pytest.mark.parametrize("x", [{0: 1}, b"\x01\x02\x03", None, iter([1, 2, 3])],
                         ids=("dict", "bytes", "None", "iterator"))
@pytest.mark.parametrize("transform", [lambda x: iterated_transform(x, 1), binomial_transform],
                         ids=("iterated_transform", "binomial_transform"))
def test_transform_refuses_entries_that_are_not_a_list_or_tuple(transform, x):
    with pytest.raises(ValueError, match="^entries must be a list or tuple$"):
        transform(x)


@pytest.mark.parametrize("m", [0, -3])
def test_modulus_must_be_positive(m):
    with pytest.raises(ValueError, match="^modulus must be at least 1$"):
        iterated_transform([1, 2, 3], 2, m)
    # the count and length checks still come first
    with pytest.raises(ValueError, match="iteration count must be at least 0"):
        iterated_transform([], -1, m)
    with pytest.raises(ValueError, match="input sequence must be non-empty"):
        iterated_transform([], 1, m)
