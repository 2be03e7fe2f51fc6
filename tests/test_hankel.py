import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hankelforge import hankel, prefix, verify
from hankelforge.exact import InexactDivisionError
from hankelforge.hankel import (
    det_bareiss,
    det_dodgson,
    det_laplace,
    hankel_minors,
    quotient_check,
)
from hankelforge.sequences import APERY_A, APERY_B, CLF, domb, franel

from oracle_helpers import det_fractions, det_permutation, hankel_rows, leading_minors_mod_p


# hankel_minors takes runs of values and checks every one: here the bad run
# comes after a good one.
@pytest.mark.parametrize("func", (det_laplace, det_bareiss, det_dodgson,
                                  lambda values: hankel_minors([(1, 2, 3), values])),
                         ids=("det_laplace", "det_bareiss", "det_dodgson", "hankel_minors"))
def test_values_must_be_an_odd_count_of_exact_integers(func):
    for values in ((), (1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="need 2n\\+1 antidiagonal values, got"):
            func(values)
    for values in ((1, 2.0, 3), (1.5,), (1, 2, "3"), (1, Fraction(2), 3)):
        with pytest.raises(ValueError, match="entries must be exact integers"):
            func(values)


# Bytes and a range index like a list of ints, and None has no length: they
# gave det 1 for b"\x01" and -1 for range(3), or raised TypeError.
@pytest.mark.parametrize("values", [b"\x01", range(3), None], ids=("bytes", "range", "None"))
@pytest.mark.parametrize("func", (det_laplace, det_bareiss, det_dodgson, lambda values: hankel_minors([values])),
                         ids=("det_laplace", "det_bareiss", "det_dodgson", "hankel_minors"))
def test_values_must_be_a_list_or_tuple(func, values):
    with pytest.raises(ValueError, match="^entries must be a list or tuple$"):
        func(values)


def test_runs_must_be_a_list_or_tuple():
    with pytest.raises(ValueError, match="^runs must be a list or tuple$"):
        hankel_minors(None)


def test_bools_are_not_exact_integers():
    # isinstance(True, int) holds, so only a test of the exact type refuses them
    with pytest.raises(ValueError, match="entries must be exact integers"):
        hankel_minors([[True, 1, 2]])
    with pytest.raises(ValueError, match="entries must be exact integers"):
        det_bareiss((True, False, True))


def test_blocks_read_the_matrix_off_its_values(monkeypatch):
    # det_bareiss reads the Hankel matrix (x_{i+j}) off its values as the
    # rows it hands the kernel; a prefix of the values is a leading block.
    seen = []
    bareiss_det = hankel._bareiss_det
    monkeypatch.setattr(hankel, "_bareiss_det", lambda rows: seen.append(rows) or bareiss_det(rows))
    f = prefix(franel(3), 4).terms
    assert hankel._order(f) == 3
    assert det_bareiss(f[:3]).value == 6
    assert det_bareiss(f[:1]).value == 1
    d = prefix(domb(2), 2).terms
    assert det_bareiss(d).value == 12
    assert det_bareiss((5, 6, 7)).value == -1
    assert seen == [[(1, 2), (2, 10)], [(1,)], [(1, 4), (4, 28)], [(5, 6), (6, 7)]]


def test_laplace_examples():
    assert det_laplace((1, 2, 10)).value == 6
    assert det_laplace((1,)).value == 1
    # f(3)'s order-3 matrix: two products for each of the three 2x2 minors
    # and three for the top row, the widest 10 * 346 = 3460 (12 bits).
    assert det_laplace((1, 2, 10, 56, 346)) == (180, 9, 12, False)
    # [[1, 0, 1], [0, 1, 0], [1, 0, 1]]: a step for each nonzero entry
    # expanded, two in the top row and one in each 2x2 minor they reach; none
    # for a zero (counting those too would give 3 + 3 * 2 = 9)
    assert det_laplace((1, 0, 1, 0, 1)) == (0, 4, 1, False)


def test_laplace_cap(monkeypatch):
    # x_10 = 1 and every other value 0: the order-11 reversal matrix, whose
    # determinant is the sign (-1)^(11*10/2) of reversing 11 columns.
    reversal = (0,) * 10 + (1,) + (0,) * 10
    with pytest.raises(ValueError, match="capped at order 10, got 11"):
        det_laplace(reversal)
    monkeypatch.setattr(hankel, "LAPLACE_ORDER_CAP", 11)
    assert det_laplace(reversal).value == -1


def test_bareiss_examples():
    assert det_bareiss((1, 4, 28)).value == 12
    assert det_bareiss(prefix(domb(2), 2).terms).value == 12
    assert det_bareiss(prefix(franel(3), 2).terms).value == 6
    assert det_bareiss((5, 6, 7)).value == -1
    # the order-5 reversal matrix: zero pivots, so Bareiss swaps rows twice
    assert det_bareiss((0, 0, 0, 0, 1, 0, 0, 0, 0)).value == 1
    assert det_bareiss((1, 5, 73)).value == 48


def test_dodgson_examples():
    assert det_dodgson((1, 2, 10, 56, 346)).value == 180
    assert det_dodgson((1,)).value == 1
    assert det_dodgson((1, 3, 19)).value == 10


def test_dodgson_zero_pivot_falls_back():
    # Bareiss swaps rows at a zero pivot; the kernel is checked on a matrix
    # that is not Hankel, which no engine takes.
    rows = [[1, 2, 3], [4, 0, 6], [7, 8, 9]]
    assert hankel._bareiss_det(rows)[0] == det_fractions(rows) == 60
    # The recursion meets a zero divisor (x_0, then the order-2 minor), so
    # DODGSON falls back, and steps/max_bits cover both attempts.
    for values in ((0, 1, 1, 1, 2), (1, 1, 1, 1, 2, 3, 5)):
        order = len(values) // 2 + 1
        minors, steps, max_bits = hankel._leading_minors([values])[0]
        _, b_steps, b_bits = hankel._bareiss_det(hankel_rows(values, order - 1))
        result = det_dodgson(values)
        assert len(minors) < order and result.fallback
        assert result.value == det_fractions(hankel_rows(values, order - 1))
        assert (result.steps, result.max_bits) == (steps + b_steps, max(max_bits, b_bits))


def test_dodgson_no_fallback_when_interior_nonzero():
    result = det_dodgson((1, 2, 10, 56, 346))
    assert not result.fallback


def test_engines_agree_on_random_matrices():
    rng = random.Random(42)
    for trial in range(60):
        order = rng.randint(1, 7)
        rows = [[rng.randint(-99, 99) for _ in range(order)] for _ in range(order)]
        if trial % 7 == 0 and order > 1:
            rows[order // 2] = [0] * order  # force singular cases
        expected = det_fractions(rows)
        assert hankel._bareiss_det(rows)[0] == expected
        if order <= 5:
            assert det_permutation(rows) == expected
        values = [rng.randint(-99, 99) for _ in range(2 * order - 1)]
        if trial % 7 == 0 and order > 1:
            values[order - 1 :] = [0] * order  # the last row is 0: singular
        expected = det_fractions(hankel_rows(values, order - 1))
        assert det_laplace(values).value == expected
        assert det_bareiss(values).value == expected
        assert det_dodgson(values).value == expected


def test_hankel_minors_of_apery_b_match_fraction_oracle():
    terms = prefix(APERY_B, 12).terms
    minors = hankel_minors([terms])[0]
    assert len(minors) == 7
    rows = hankel_rows(terms, 6)
    for size in range(1, 8):
        assert minors[size - 1] == det_fractions([r[:size] for r in rows[:size]])


# Mostly 0 and +-1 entries, so zero pivots, row swaps and singular matrices
# are common rather than rare.
_sparse_matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -3, 7)), min_size=n * n, max_size=n * n
    ).map(lambda xs: [xs[i : i + n] for i in range(0, n * n, n)])
)
_oracle_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Antidiagonal values drawn either mostly from 0 and +-1, where zero leading
# minors are common and the Hankel recursion often falls back, or from the
# nonzero integers up to 99, where it usually completes.
_HANKEL_POOLS = ((0, 0, 1, -1, 1, -1, 2, -3), tuple(x for x in range(-99, 100) if x))


def _hankel_sequences(max_order):
    return st.tuples(st.integers(1, max_order), st.sampled_from(_HANKEL_POOLS)).flatmap(
        lambda nv: st.lists(st.sampled_from(nv[1]), min_size=2 * nv[0] - 1, max_size=2 * nv[0] - 1)
    )


def _fraction_minors(terms):
    order = len(terms) // 2 + 1
    rows = [[terms[i + j] for j in range(order)] for i in range(order)]
    return [det_fractions([r[:size] for r in rows[:size]]) for size in range(1, order + 1)]


def _recursion_completes(values):
    """Whether no leading minor of order 1..n-2 of the order-n Hankel matrix
    on ``values`` (the divisors of the Hankel recursion) is 0, checked with
    ``det_fractions`` and without the kernel."""
    return all(_fraction_minors(values)[:-2])


@_oracle_settings
@given(_sparse_matrices)
@example([[0, 1, 1], [1, 1, 1], [1, 1, 2]])  # a zero pivot at (0, 0): one row swap
@example([[0, 0], [0, 5]])  # no pivot in the first column: singular
def test_bareiss_kernel_matches_fraction_oracle(rows):
    assert hankel._bareiss_det(rows)[0] == det_fractions(rows)


@_oracle_settings
@given(_hankel_sequences(8))
@example((0, 1, 1, 1, 2))  # the recursion divides by x_0 = 0
@example((1, 1, 0, 1, 1))  # no divisor is 0, so it completes
@example((1, 2, 10, 56, 346))  # the recursion completes
def test_engines_match_fraction_oracle(values):
    expected = det_fractions(hankel_rows(values, len(values) // 2))
    assert det_laplace(values).value == expected
    assert det_bareiss(values).value == expected
    result = det_dodgson(values)
    assert result.value == expected
    assert result.fallback == (not _recursion_completes(values))


def test_hankel_recursion_divides_only_by_leading_minors():
    # x_2 = 0 is no leading minor, so the recursion never divides by it.
    terms = (1, 1, 0, 1, 1)
    assert _fraction_minors(terms) == [1, -1, -2]
    assert hankel._leading_minors([terms])[0] == ([1, -1, -2], 4, 2)
    # The zero order-2 minor of an order-3 matrix is no divisor either: only
    # orders 1..n-2 of an order-n matrix are.
    terms = (1, 1, 1, 1, 2)
    assert _fraction_minors(terms) == [1, 0, 0]
    minors, _, _ = hankel._leading_minors([terms])[0]
    assert minors == [1, 0, 0]


def test_hankel_zero_divisor_falls_back_to_bareiss():
    # The order-2 leading minor of this order-4 matrix is 0, and the step
    # to order 4 divides by it.
    terms = (1, 1, 1, 1, 2, 3, 5)
    expected = _fraction_minors(terms)
    assert expected == [1, 0, 0, -1]
    minors, _, _ = hankel._leading_minors([terms])[0]
    assert minors == expected[:3]
    assert hankel_minors([terms])[0] == expected
    result = det_dodgson(terms)
    assert result.fallback and result.value == -1


def test_hankel_minors_takes_runs_of_different_lengths_in_one_call():
    # In process the runs go in lockstep whatever their lengths: an order-1
    # run takes no step, and (0, 1, 1, 1, 2) stops at its zero divisor x_0
    # while (1, 2, 10, 56, 346) goes on.
    runs = [(7,), (1, 2, 10, 56, 346), (3, 5, 3), (0, 1, 1, 1, 2)]
    want = [[7], [1, 6, 180], [3, -16], [0, -1, -1]]
    assert [_fraction_minors(values) for values in runs] == want
    assert hankel_minors(runs) == want == [hankel_minors([values])[0] for values in runs]
    assert hankel._leading_minors(runs) == [hankel._leading_minors([values])[0] for values in runs]
    assert hankel_minors([]) == [] and hankel._leading_minors([]) == []


def _count_bareiss_calls(monkeypatch):
    """The order of every ``bareiss_det`` call the ``hankel`` module makes."""
    orders = []
    bareiss_det = hankel._bareiss_det

    def counting_bareiss_det(rows):
        orders.append(len(rows))
        return bareiss_det(rows)

    monkeypatch.setattr(hankel, "_bareiss_det", counting_bareiss_det)
    return orders


def test_hankel_fallback_reuses_the_recursion_minors(monkeypatch):
    # Past a zero divisor only the blocks the recursion did not reach go to
    # Bareiss, one call each, built from the values: no sweep.
    orders = _count_bareiss_calls(monkeypatch)
    assert hankel_minors([(1, 1, 1, 1, 2, 3, 5)])[0] == [1, 0, 0, -1]
    assert orders == [4]
    orders.clear()
    assert hankel_minors([(0, 1, 1, 1, 2)])[0] == _fraction_minors((0, 1, 1, 1, 2))
    assert orders == [3]


def test_hankel_cost_is_length_squared_times_last_bits_squared():
    # It decides whether the minors fork, which no output shows: 5 values,
    # the last of 10 bits (the one before it has 3).
    assert hankel._hankel_cost([1, 2, 3, 4, 1000]) == 5**2 * 10**2


@_oracle_settings
@given(_hankel_sequences(40))
def test_hankel_minors_match_bareiss_on_each_leading_block(seq):
    # The leading order-(s+1) block is the Hankel matrix on x_0..x_2s.
    order = (len(seq) + 1) // 2
    minors = hankel_minors([seq])[0]
    assert minors == [det_bareiss(seq[: 2 * s + 1]).value for s in range(order)]
    if order <= 7:
        rows = hankel_rows(seq, order - 1)
        assert minors == [det_fractions([r[:size] for r in rows[:size]]) for size in range(1, order + 1)]


@_oracle_settings
@given(_hankel_sequences(8))
@example((1, 1, 1, 1, 2, 3, 5))  # order-2 minor 0 divides the step to order 4
@example((0, 1, 1, 1, 2))  # the recursion divides by x_0 = 0
@example((1, 1, 1, 1, 2))  # zero minors of order 2 and 3, but no zero divisor
@example((0,))  # order 1: no step, so no divisor at all
@example((7,))
@example((0, 0, 0, 0, 0))  # the recursion stops at order 2; order 3 comes from Bareiss
def test_hankel_minors_match_matrix_route(seq):
    expected = _fraction_minors(seq)
    minors, _, _ = hankel._leading_minors([seq])[0]
    if len(minors) < len(expected):
        # hankel_minors returns these minors as they are, so they must be exact.
        assert minors == expected[: len(minors)]
    assert hankel_minors([seq])[0] == expected


# Every claim that takes Hankel minors: the four quotient and positivity
# claims on sequence terms, and the parity claim on halved parity values.
_HANKEL_CLAIMS = ("hankel-franel", "hankel-domb-clf", "hankel-apery", "apery-positivity",
                  "parity-matrix-unimodular")


@pytest.mark.parametrize("claim_id", _HANKEL_CLAIMS)
def test_hankel_claims_build_no_matrix(monkeypatch, claim_id):
    # At the default bounds every minor comes from the recursion on the
    # values: no block's rows are built for Bareiss.
    orders = _count_bareiss_calls(monkeypatch)
    report = verify.run_claim(claim_id)
    assert report.entries and orders == []


def _assert_minors_match_modular_sweep(seq, n):
    terms = prefix(seq, 2 * n).terms
    minors = hankel_minors([terms])[0]
    assert len(minors) == n + 1
    rows = hankel_rows(terms, n)
    for p in (2**61 - 1, 2**89 - 1):
        assert [m % p for m in minors] == leading_minors_mod_p(rows, p)


# Order 51 is what the Hankel claims reach at n_max=50, far above the orders
# the Fraction and Laplace oracles can check; the GF(p) sweep is a second
# route there.  No leading minor of these matrices is 0 mod either prime,
# so every minor is compared.
@pytest.mark.parametrize("seq", (franel(3), domb(2), CLF, APERY_A), ids=lambda s: s.label())
def test_leading_minors_at_order_51_match_modular_sweep(seq):
    _assert_minors_match_modular_sweep(seq, 50)


def test_leading_minors_at_order_101_match_modular_sweep():
    _assert_minors_match_modular_sweep(franel(3), 100)


def test_quotient_check_examples():
    assert quotient_check(180, 6, 2) == 5
    assert quotient_check(16, 2, 4) == 1
    assert quotient_check(1, 6, 0) == 1
    assert quotient_check(10, 4, 1) is None
    assert quotient_check(-24, 2, 3) == -3
    # answered from bit-lengths, without building a 25-million-bit power
    assert quotient_check(6, 6, 10**7) is None
    # 0 is divisible by any power: the quotient is 0, not None
    assert quotient_check(0, 6, 10**12) == 0
    # for base 2 the bit-length bound is tight on both sides
    assert quotient_check(32, 2, 5) == 1
    assert quotient_check(16, 2, 5) is None
    assert quotient_check(-(6**40), 6, 40) == -1
    assert quotient_check(2**40, 3, 40) is None  # the bound cannot tell; divmod does


def test_quotient_check_builds_no_power_that_cannot_divide():
    # The bit-length bound is a guard: without it, `hankel --base 2 --exp
    # 1000000000000` would build a 10**12-bit power.  Here the power would
    # have 10**6 bits (125 kB), and tracemalloc sees whether it was built.
    import tracemalloc

    def peak_bytes(*args):
        tracemalloc.start()
        try:
            assert quotient_check(*args) is None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(6, 2, 10**6) < 10**4
    # a 10**6-bit value and 2**(10**6): the bound's equality
    assert peak_bytes(2**10**6 - 1, 2, 10**6) < 10**4
    assert peak_bytes(2**10**6 - 1, 2, 10**6 - 1) > 10**5  # can divide, so the power is built


def test_quotient_check_validation():
    with pytest.raises(ValueError):
        quotient_check(10, 1, 2)
    with pytest.raises(ValueError):
        quotient_check(10, 2, -1)
    # unchecked, these gave the float 2.0, two AttributeErrors and the quotient
    # 1 of a bool
    for args in [(8, 2, 2.0), (8, 2.0, 3), (8.0, 2, 2), (True, 2, 0)]:
        with pytest.raises(ValueError, match="must be an integer"):
            quotient_check(*args)


def test_antidiagonal_two_power_scaling():
    # scaling terms by 2^index multiplies the order-(n+1) det by 2^(n(n+1))
    for seq in (franel(3), domb(2), APERY_A):
        terms = prefix(seq, 16).terms
        scaled = [t << i for i, t in enumerate(terms)]
        for n in range(9):
            base = det_bareiss(terms[: 2 * n + 1]).value
            assert det_bareiss(scaled[: 2 * n + 1]).value == 2 ** (n * (n + 1)) * base


def test_instrumentation_is_populated():
    result = det_bareiss(prefix(franel(3), 12).terms)
    assert result.steps > 0
    assert result.max_bits >= result.value.bit_length()


def test_kernels_on_spec_values():
    f = prefix(franel(3), 4).terms
    rows = [[f[i + j] for j in range(3)] for i in range(3)]
    # Four updates at k = 0 and one at k = 1; every numerator is narrower
    # than the 9-bit input 346.
    assert hankel._bareiss_det(rows) == (180, 5, 9)
    minors, steps, max_bits = hankel._leading_minors([f])[0]
    assert minors == [1, 6, 180]
    # Step 0 (Delta_0 = 1, c = 0, so w = 0): tau_1 = (10 - 2*2, 56 - 2*10,
    # 346 - 2*56) = (6, 36, 234).  Step 1 (Delta_1 = 1, Delta_2 = 6, a = 36,
    # c = 2): w = 2*36 - 6*10 = 12 and tau_2(2) = 6*(234 + 12) - 36*36 = 180.
    # Four entries; the numerators 0, 6, 36, 234, 12 and 180 are all narrower
    # than the 9-bit input 346.
    assert steps == 4
    assert max_bits == 9
    # (3, 5, 3): one entry, whose numerator 3*3 - 5*5 = -16 (5 bits) is wider
    # than every input.
    assert hankel._leading_minors([(3, 5, 3)])[0] == ([3, -16], 1, 5)
    # (1, 0, 2, 0, 3): at step 1 (Delta_1 = 1, Delta_2 = 2, a = 0, c = 0) the
    # first numerator u = 0*0 - 2*2 = -4 (3 bits) is wider than every input
    # and than the second, 2*(3 - 4) - 0*0 = -2: both numerators count.
    assert hankel._leading_minors([(1, 0, 2, 0, 3)])[0] == ([1, 2, -2], 4, 3)


def test_kernels_do_not_mutate_input():
    cases = ([[1, 2], [3, 4]], [[0, 1, 2], [1, 0, 3], [2, 3, 0]], [[1, 2, 3], [4, 0, 6], [7, 8, 9]])
    for rows in cases:
        snapshot = [r[:] for r in rows]
        hankel._bareiss_det(rows)
        assert rows == snapshot
    for seq in ([1, 2, 10, 56, 346], [1, 1, 0, 1, 1], [0]):
        snapshot = seq[:]
        hankel._leading_minors([seq])
        assert seq == snapshot


def test_kernel_divisions_are_checked(monkeypatch):
    # Every interior division is exact for integer inputs, so a remainder is
    # faked: each kernel must raise rather than keep the rounded quotient.
    monkeypatch.setattr(hankel, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InexactDivisionError, match="bareiss"):
        det_bareiss((1, 2, 10, 56, 346))
    # x_0 = 2 is the first divisor other than +-1, at the step to order 3.
    with pytest.raises(InexactDivisionError, match="chebyshev"):
        det_dodgson((2, 1, 1, 1, 1))
    # Each update of the recursion divides twice (w, then q); here only the
    # first, then only the second, leaves a remainder.
    for inexact_call in (1, 2):
        calls = []

        def one_inexact(a, b):
            calls.append(None)
            q, r = divmod(a, b)
            return q, r + (len(calls) == inexact_call)

        monkeypatch.setattr(hankel, "divmod", one_inexact, raising=False)
        with pytest.raises(InexactDivisionError, match="chebyshev"):
            det_dodgson((2, 1, 1, 1, 1))
        assert len(calls) == inexact_call


# ---------------------------------------------------------------------------
# the packed form of a step of the recursion (_packed_step)


def _list_form(func, *args):
    """``func(*args)`` with no run taken packed: the list form of every step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "_PACK_MIN_LEN", 10**9)
        return func(*args)


def _record_packed_steps(monkeypatch):
    """The ``(width, taken)`` of every ``_packed_step`` call the ``hankel``
    module makes: the row's width, and whether the step was taken packed."""
    calls = []
    packed_step = hankel._packed_step

    def recording_packed_step(*state):
        step = packed_step(*state)
        calls.append((state[4], step is not None))
        return step

    monkeypatch.setattr(hankel, "_packed_step", recording_packed_step)
    return calls


def _parity_run(hi):
    """The parity claim's run: the power-of-two indicator at 2..2hi."""
    return [int(i & (i - 1) == 0) for i in range(2, 2 * hi + 1)]


# Narrow runs, of entries in {0, 1} or -2..2 and of odd lengths 1..121, so
# that they cross _PACK_MIN_LEN, meet zero minors and outgrow their lanes,
# mixed in one lockstep call with wide runs, which are never packed.
_narrow_runs = st.tuples(st.sampled_from(((0, 1), (-2, 2))), st.integers(0, 60)).flatmap(
    lambda rn: st.lists(st.integers(*rn[0]), min_size=2 * rn[1] + 1, max_size=2 * rn[1] + 1))
_wide_runs = st.integers(0, 20).flatmap(
    lambda n: st.lists(st.integers(-10**6, 10**6), min_size=2 * n + 1, max_size=2 * n + 1))


# A 0/1 run whose minors begin 1, 1, -2, -1: its step 3 would divide by -2
# while its numerators still fit their lanes.
_MINUS_2_RUN = [int(c) for c in "10110010101100010100001010000110000110110"]


@_oracle_settings
@given(st.lists(st.one_of(_narrow_runs, _narrow_runs, _wide_runs), min_size=1, max_size=4))
@example([_parity_run(61)])  # 121 values that stay narrow until the rows are short
@example([[0] * 25, [1] + [0] * 24, _parity_run(12)[:23] + [1, 1]])  # zero minors while packed
@example([_MINUS_2_RUN])  # a divisor of -2 while packed
def test_packed_steps_give_the_list_form_s_minors_and_stats(runs):
    assert hankel._leading_minors(runs) == _list_form(hankel._leading_minors, runs)
    # Past a zero minor every higher order is a Bareiss determinant on a
    # prefix: cheap only for short runs, and the same code on either route.
    order = len(runs[0]) // 2 + 1
    if len(runs[0]) <= 41 or len(hankel._leading_minors(runs[:1])[0][0]) == order:
        assert hankel_minors(runs[:1]) == _list_form(hankel_minors, runs[:1])


@pytest.mark.parametrize("hi", (10, 64))  # 19 values, the shortest taken packed, and 127
def test_the_parity_run_is_taken_packed_with_the_list_form_s_result(monkeypatch, hi):
    # What `hankel --engine dodgson` prints for a narrow input: no golden
    # digest covers the packed form there.
    run = _parity_run(hi)
    want = _list_form(det_dodgson, run)
    calls = _record_packed_steps(monkeypatch)
    assert det_dodgson(run) == want and want.value in (1, -1) and want.max_bits == 1
    # Packed from the run's length down to the last row of at least _PACK_MIN_LEN.
    assert [taken for _, taken in calls] == [True] * ((len(run) - hankel._PACK_MIN_LEN) // 2 + 1) + [False]


def test_a_lane_that_would_overflow_is_left_to_the_list_form(monkeypatch):
    # 6-bit entries fill their lanes when packed, and the first step's
    # numerators would need more bits than a lane holds; these 2-bit entries
    # outgrow the lanes at the second step.  The bound sends both to the list
    # form before a lane overflows.
    calls = _record_packed_steps(monkeypatch)
    rng = random.Random(14)
    for bits, left_at in ((6, 41), (2, 39)):
        run = [rng.randint(1 - (1 << bits), (1 << bits) - 1) for _ in range(41)]
        calls.clear()
        assert hankel._leading_minors([run]) == _list_form(hankel._leading_minors, [run])
        assert calls[-1] == (left_at, False)


def test_a_planted_lane_overflow_is_refused():
    # A state no Hankel matrix gives, with Delta_k = -1, Delta_{k+1} = -3,
    # a = 7, c = -3 and 3-bit entries: u = -3*7 - (-3)*(-2) = -27 fits its
    # lane, but tau_{k+1}(k+1) = -(-3*(4 + 27) - 7*7) = 142 would need 9 bits.
    # The bound on V, taken once u is read, refuses the step.
    row, _, _, ones, width = hankel._pack([-3, 7, 4] + [0] * 22, 3)
    state = row, hankel._pack([-2] + [0] * 24, 3)[0], -3, ones, width
    assert hankel._packed_step(*state, -1, -3, 3) is None
    t, s = hankel._unpack(*state, -1)
    nxt, max_bits = hankel._tau_step(zip(t[1:], t[2:], s[2:]), -1, t[0], t[1], s[1], 3)
    assert nxt[0] == 142 and max_bits == 8


@pytest.mark.parametrize("divisor", (2, -3))
def test_the_packed_form_refuses_a_divisor_other_than_1_or_minus_1(divisor):
    # A state no Hankel matrix gives, with Delta_{k+1} = 0, c = 1 and
    # a = tau_k(k+1) = divisor: the lanes of u = T1 and of v = -a T1 are all
    # multiples of the divisor, and both bounds pass, as the same step by 1
    # shows.  The divisor alone sends the step to the list form.
    entries = [0] + [divisor * x for x in (1, -1, 1, 0, 1)] + [0] * 19
    row, low, _, ones, width = hankel._pack(entries, 2)
    state = row, low, 1, ones, width
    assert hankel._packed_step(*state, divisor, 0, 2) is None
    assert hankel._packed_step(*state, 1, 0, 2) is not None


def test_a_run_leaves_the_packed_form_at_a_divisor_of_minus_2(monkeypatch):
    # Steps 0..2 divide by 1 and go packed, step 3 divides by -2 and takes
    # the run to the list form, though its numerators would still fit their
    # lanes.
    calls = _record_packed_steps(monkeypatch)
    got = hankel._leading_minors([_MINUS_2_RUN])
    assert got == _list_form(hankel._leading_minors, [_MINUS_2_RUN])
    assert got[0][0][:4] == [1, 1, -2, -1]
    assert calls == [(41, True), (39, True), (37, True), (35, False)]


@pytest.mark.parametrize("entries, c", (
    ([0, 1, 2], 1),  # the lanes of u are 1, 2: packed, 1 + 2*256 = 3*171
    ([0, 1], 1),     # u is 1, which leaves a remainder
    ([0, 1, 2], 0),  # u = 0 and the lanes of v are -1, -2: packed, -513 = 3*(-171)
    ([0, 1], 0),     # v is -1, which leaves a remainder
))
def test_an_inexact_packed_division_is_refused(entries, c):
    # Every division of the recursion is exact, so an inexact one is planted:
    # a state no Hankel matrix gives, with Delta_k = 3, Delta_{k+1} = 0 and
    # tau_{k-1} = 0.  Packed, a remainder can vanish where a lane's does not;
    # the packed form divides by +-1 only, and the list form of the step raises.
    row, low, _, ones, width = hankel._pack(entries + [0] * (25 - len(entries)), 2)
    state = row, low, c, ones, width
    assert hankel._packed_step(*state, 3, 0, 2) is None
    t, s = hankel._unpack(*state, 3)
    with pytest.raises(InexactDivisionError):
        hankel._tau_step(zip(t[1:], t[2:], s[2:]), 3, t[0], t[1], s[1], 2)
