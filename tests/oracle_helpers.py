"""Brute-force oracles used across the tests.

Everything here is computed straight from defining formulas with
``math.comb`` and ``fractions.Fraction``, or by elimination over GF(p),
independent of the package's Pascal rows, recurrences and fraction-free
kernels, so the tests check the library against a second route rather than
against itself.
"""
from fractions import Fraction
from itertools import permutations
from math import comb

from hankelforge import Family, SequenceId, domb, franel
from hankelforge.sequences import APERY_A, APERY_B, CENTRAL_BINOM, CLF, G_SUM

CATALOG = (
    franel(3),
    franel(4),
    franel(5),
    franel(6),
    domb(1),
    domb(2),
    domb(3),
    CLF,
    APERY_B,
    APERY_A,
    CENTRAL_BINOM,
    G_SUM,
)


def brute_term(seq: SequenceId, n: int) -> int:
    fam = seq.family
    if fam is Family.FRANEL_R:
        return sum(comb(n, k) ** seq.param for k in range(n + 1))
    if fam is Family.DOMB_M:
        return sum(
            comb(n, k) ** seq.param * comb(2 * k, k) * comb(2 * (n - k), n - k)
            for k in range(n + 1)
        )
    if fam is Family.CLF:
        total = sum(
            Fraction(comb(2 * k, k) ** 2 * comb(2 * (n - k), n - k) ** 2, comb(n, k))
            for k in range(n + 1)
        )
        assert total.denominator == 1
        return int(total)
    if fam is Family.APERY_B:
        return sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))
    if fam is Family.APERY_A:
        return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))
    if fam is Family.CENTRAL_BINOM:
        return comb(2 * n, n)
    if fam is Family.G_SUM:
        return sum(comb(n, k) ** 2 * comb(2 * k, k) for k in range(n + 1))
    raise AssertionError(fam)


def brute_prefix(seq: SequenceId, n_max: int) -> list[int]:
    return [brute_term(seq, n) for n in range(n_max + 1)]


def det_fractions(rows) -> int:
    """Plain Gaussian elimination over Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = Fraction(1) / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    assert det.denominator == 1
    return int(det)


def det_permutation(rows) -> int:
    """Leibniz expansion; only sensible for tiny orders."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        p = 1
        for i in range(n):
            p *= rows[i][perm[i]]
        total += -p if inversions % 2 else p
    return total


def central_binom_parity(n: int) -> bool:
    """True when C(2n-1, n-1) is odd, from the binomial itself."""
    if n < 1:
        raise ValueError("n must be positive")
    return comb(2 * n - 1, n - 1) % 2 == 1


def hankel_rows(terms, n: int) -> list[list[int]]:
    return [[terms[i + j] for j in range(n + 1)] for i in range(n + 1)]


def inverse_binomial_transform(x) -> list[int]:
    """``y[n] = sum_k (-1)^(n-k) C(n,k) x[k]``, the inverse of the package's
    ``binomial_transform``; ValueError on an empty input, as there."""
    if len(x) == 0:
        raise ValueError("input sequence must be non-empty")
    return [
        sum((-1) ** (n - k) * comb(n, k) * x[k] for k in range(n + 1)) for n in range(len(x))
    ]


def iterated_transform_sum(x, k: int) -> list[int]:
    """``y[n] = sum_j C(n,j) k^(n-j) x[j]``, the k-fold binomial transform
    straight from its defining sum."""
    return [sum(comb(n, j) * k ** (n - j) * x[j] for j in range(n + 1)) for n in range(len(x))]


def leading_minors_mod_p(rows, p: int) -> list[int]:
    """Leading principal minors of ``rows`` mod the prime ``p``.

    Gaussian elimination over GF(p) without row swaps, so the order-k minor
    is the product of the first k pivots.  The sweep stops after the first
    minor that is 0 mod p, since no later pivot is defined; the list is then
    shorter than the order.
    """
    m = [[x % p for x in r] for r in rows]
    n = len(m)
    out = []
    det = 1
    for k in range(n):
        pivot_row = m[k]
        det = det * pivot_row[k] % p
        out.append(det)
        if not det:
            break
        inv = pow(pivot_row[k], -1, p)
        for row in m[k + 1 :]:
            f = row[k] * inv % p
            if f:
                for j in range(k + 1, n):
                    row[j] = (row[j] - f * pivot_row[j]) % p
    return out
