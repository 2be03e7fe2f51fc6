"""Arithmetic predicates and the hypothesis check of the parity-matrix lemma.

The parity matrix of a sequence x with scale k is the (0,1)-matrix
``B[i][j] = (x[i+j] / (2k)) mod 2`` for ``1 <= i, j <= n``.  For sequences
whose terms satisfy ``x_0 = 1``, ``2k | x_i`` for i >= 1, and
``4k | x_i`` exactly when i is not a power of two, the determinant of B
over the integers is +1 or -1, which is what makes the Hankel-quotient
oddness claims tick.  Those hypotheses fix every entry of B: ``(x_i/2k) mod 2``
is 1 exactly when i is a power of two.  So :func:`lemma23_hypothesis_check`,
which tests them at every index of the terms it is given, one check per
index in the form :meth:`verify.Claim.run` records, is the only code that
reads those bits; the parity claim factors the Hankel matrix of the
power-of-two indicator.
"""
from __future__ import annotations

from .exact import exact_int, exact_ints
from .reports import Check


def nu2(x: int) -> int:
    """2-adic valuation: the largest e with 2**e dividing x.  x must be nonzero."""
    if x == 0:
        raise ValueError("nu2 is undefined at 0")
    a = abs(x)
    return (a & -a).bit_length() - 1


def is_power_of_two(n: int) -> bool:
    if n < 1:
        raise ValueError("n must be positive")
    return n & (n - 1) == 0


def is_prime(n: int) -> bool:
    """Trial division; intended for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def central_binom_parities(hi: int) -> list[bool]:
    """Whether C(2n-1, n-1) is odd, for n = 1..hi.

    The 2-adic valuation is tracked along n, never from the binomial itself:
    C(2n+1, n) = C(2n-1, n-1) * 2(2n+1)/(n+1), so it steps by 1 - nu2(n+1),
    from 0 at n = 1.
    """
    out = []
    v = 0
    for n in range(1, hi + 1):
        out.append(v == 0)
        v += 1 - nu2(n + 1)
    return out


def lemma23_hypothesis_check(x: list[int] | tuple[int, ...], k: int) -> list[Check]:
    """Per-index checks of the parity-matrix hypotheses for x with scale k.

    Index 0 must be 1; at every later index i of x, ``2k`` must divide
    ``x[i]`` and ``4k`` must divide it exactly when i is not a power of two.
    Each check is ``(label, value, ok, expected)``, labelled ``i=<index>``.
    ``k`` must pass ``exact.exact_int`` from 1 and x ``exact.exact_ints``;
    an empty x, which has no index 0, is a ValueError too.
    """
    exact_int(k, "k", 1)
    if not exact_ints(x, "the terms x"):
        raise ValueError("need at least the term x_0")
    expected = f"2k | x_i and (4k | x_i iff i not a power of two), k={k}"
    checks: list[Check] = [("i=0", x[0], x[0] == 1, "x_0 = 1")]
    for i in range(1, len(x)):
        xi = x[i]
        ok = xi % (2 * k) == 0 and (xi % (4 * k) == 0) == (not is_power_of_two(i))
        checks.append((f"i={i}", xi, ok, expected))
    return checks
