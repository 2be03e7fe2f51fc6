from math import comb

import pytest

from hankelforge import _kernels, hankel, prefix, verify
from hankelforge.hankel import det_bareiss, hankel_minors
from hankelforge.numtheory import (
    central_binom_parities,
    is_power_of_two,
    is_prime,
    lemma23_hypothesis_check,
    nu2,
    ones_count,
)
from hankelforge.sequences import domb, franel

from oracle_helpers import central_binom_parity


def test_nu2_examples():
    assert nu2(56) == 3
    assert nu2(1) == 0
    assert nu2(15184) == 4  # 16 * 949
    assert nu2(-48) == 4
    with pytest.raises(ValueError):
        nu2(0)


def test_ones_count():
    assert ones_count(3) == 2
    assert ones_count(0) == 0
    assert ones_count(11) == 3
    with pytest.raises(ValueError):
        ones_count(-1)


def test_is_power_of_two():
    assert is_power_of_two(4)
    assert is_power_of_two(1)
    assert not is_power_of_two(6)
    with pytest.raises(ValueError):
        is_power_of_two(0)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_central_binom_parity_examples():
    assert central_binom_parity(4)  # C(7,3) = 35
    assert central_binom_parity(1)
    assert not central_binom_parity(3)  # C(5,2) = 10


def test_central_binom_parity_criterion():
    for n in range(1, 513):
        assert central_binom_parity(n) == is_power_of_two(n)


def test_central_binom_parities_track_the_binomial():
    assert central_binom_parities(0) == []
    assert central_binom_parities(4) == [True, True, False, True]  # C(1,0), C(3,1), C(5,2), C(7,3)
    assert central_binom_parities(2000) == [central_binom_parity(n) for n in range(1, 2001)]


def test_calkin_divisibility_shape():
    for r in range(1, 4):
        terms = prefix(franel(r), 128).terms
        for n in range(1, 129):
            assert nu2(terms[n]) >= ones_count(n)


def test_power_of_two_refinement():
    # 4 does not divide f(r)_n exactly when n is a power of two (r >= 2)
    for r in (2, 3, 4):
        terms = prefix(franel(r), 128).terms
        for n in range(1, 129):
            assert (terms[n] % 4 != 0) == is_power_of_two(n)


def test_domb_mod8_congruence():
    for m in (1, 2, 3):
        terms = prefix(domb(m), 64).terms
        for n in range(1, 65):
            assert terms[n] % 8 == 4 * comb(2 * n - 1, n - 1) % 8
            assert terms[n] % 4 == 0
            assert (terms[n] % 8 == 0) == (not is_power_of_two(n))


def test_parity_matrix_examples():
    # B = ((1, 0, 1), (0, 1, 0), (1, 0, 0)), ((1,),) and ((1, 0), (0, 1)),
    # given by their antidiagonals, read from the terms
    f = prefix(franel(3), 6).terms
    assert [(f[i] // 2) & 1 for i in range(2, 7)] == [1, 0, 1, 0, 0]
    assert [(f[i] // 2) & 1 for i in range(2, 3)] == [1]
    d = prefix(domb(2), 4).terms
    assert [(d[i] // 4) & 1 for i in range(2, 5)] == [1, 0, 1]
    # and they are the power-of-two indicator the claim factors in their place
    assert [int(is_power_of_two(i)) for i in range(2, 7)] == [1, 0, 1, 0, 0]


def test_parity_values_take_bit_1_of_the_terms(monkeypatch):
    # The values the parity claim factors are bit 1 of f(3)'s terms (k = 1)
    runs = []
    real = hankel.hankel_minors

    def recorded(got):
        runs.append(got)
        return real(got)

    monkeypatch.setattr(hankel, "hankel_minors", recorded)
    assert verify.run_claim("parity-matrix-unimodular", 5).passed
    f = prefix(franel(3), 10).terms
    assert runs == [[[(t // 2) & 1 for t in f[2:11]]]]


@pytest.mark.parametrize("case", verify.PARITY_CASES, ids=lambda c: f"{c[0].label()} k={c[1]}")
def test_parity_matrices_take_no_fallback(case):
    # Every leading minor of these matrices is +-1, so the Hankel recursion
    # never divides by 0 and Bareiss is never run for them.
    seq_id, k = case
    n = verify.PARITY_N_MAX
    terms = prefix(seq_id, 2 * n).terms
    values = [(terms[i] // (2 * k)) & 1 for i in range(2, 2 * n + 1)]
    minors, _, _ = _kernels.hankel_leading_minors(values)
    assert len(minors) == n
    assert minors == [det_bareiss(values[: 2 * s + 1]).value for s in range(n)]


@pytest.mark.parametrize("case", verify.PARITY_CASES, ids=lambda c: f"{c[0].label()} k={c[1]}")
def test_parity_values_are_the_antidiagonals_of_B(case):
    # B[i][j] = (x[i+j] / 2k) mod 2 for 1 <= i, j <= n lies on antidiagonal
    # i + j - 2 of the values.  The parity claim factors the Hankel matrix of
    # the power-of-two indicator in place of B for every case that meets the
    # hypotheses; here B's bits are read from the terms, to i = 256 (n = 128).
    seq_id, k = case
    terms = prefix(seq_id, 256).terms
    for i in range(1, 257):
        assert (terms[i] // (2 * k)) & 1 == is_power_of_two(i), i


def test_hypothesis_check_passes_for_qualifying_sequences():
    for seq, k in ((franel(3), 1), (franel(4), 1), (domb(2), 2)):
        assert all(ok for _, _, ok, _ in lemma23_hypothesis_check(prefix(seq, 16).terms, k, 16))


def test_hypothesis_check_catches_counterexample():
    checks = lemma23_hypothesis_check([1, 2, 4], 1, 2)
    # 4 | x_2 but 2 is a power of two
    assert [label for label, _, ok, _ in checks if not ok] == ["i=2"]


def test_hypothesis_check_requires_enough_terms():
    with pytest.raises(ValueError):
        lemma23_hypothesis_check([1, 2], 1, 2)


def test_hypothesis_check_refuses_a_scale_below_1():
    with pytest.raises(ValueError, match="k must be positive"):
        lemma23_hypothesis_check([1, 2, 4], 0, 2)


def test_parity_matrix_dets_are_unimodular():
    for seq, k in ((franel(3), 1), (domb(2), 2)):
        terms = prefix(seq, 48).terms
        for minor in hankel_minors([[(terms[i] // (2 * k)) & 1 for i in range(2, 49)]])[0]:
            assert minor in (1, -1)
