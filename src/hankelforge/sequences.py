"""Exact generators for the binomial-sum sequence families.

All indices run from 0 and every value is an exact integer:

* ``FRANEL_R``       f(r, n) = sum_k C(n,k)^r                          (r >= 1)
* ``DOMB_M``         d(m, n) = sum_k C(n,k)^m C(2k,k) C(2(n-k),n-k)    (m >= 1)
* ``CLF``            p(n)    = sum_k C(2k,k)^2 C(2(n-k),n-k)^2 / C(n,k)
* ``APERY_B``        b(n)    = sum_k C(n,k)^2 C(n+k,k)
* ``APERY_A``        a(n)    = sum_k C(n,k)^2 C(n+k,k)^2
* ``CENTRAL_BINOM``  c(n)    = C(2n,n)
* ``G_SUM``          g(n)    = sum_k C(n,k)^2 C(2k,k)

The classical Franel numbers are ``FRANEL_R`` with r=3 and the Domb numbers
are ``DOMB_M`` with m=2.  The CLF (Catalan-Larcombe-French) summand division
is provably integral, so it is performed with a checked exact division.

:func:`term` evaluates the defining sum, with coefficients from
:func:`math.comb`, and is the reference route.  :func:`prefix` generates
every sequence that has one from its recurrence in :data:`RECURRENCES`,
each of the form

    (n+1)^e x(n+1) = P(n) x(n) + Q(n) x(n-1)

seeded with the summation values at n = 0, 1, with every division checked
exact.  That covers f(1..4), d(1), d(2), CLF, b, a, g and the central
binomials.  Only f(r >= 5) and d(m >= 3) are summed; their prefixes walk
the Pascal rows one from the next and keep a running column of C(2k,k).

All functions here are pure and keep no state between calls.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import Callable

from . import binomial
from .exact import exact_div


class Family(enum.Enum):
    FRANEL_R = "franel"
    DOMB_M = "domb"
    CLF = "clf"
    APERY_B = "apery-b"
    APERY_A = "apery-a"
    CENTRAL_BINOM = "central"
    G_SUM = "g"


_PARAMETRIC = (Family.FRANEL_R, Family.DOMB_M)


@dataclass(frozen=True)
class SequenceId:
    """A sequence family plus its integer parameter (r or m, where used)."""

    family: Family
    param: int = 0

    def __post_init__(self) -> None:
        if self.family in _PARAMETRIC:
            if self.param < 1:
                raise ValueError(f"{self.family.value} requires a parameter >= 1")
        elif self.param != 0:
            raise ValueError(f"{self.family.value} takes no parameter")

    def label(self) -> str:
        if self.family is Family.FRANEL_R:
            return f"franel[r={self.param}]"
        if self.family is Family.DOMB_M:
            return f"domb[m={self.param}]"
        return self.family.value


@dataclass(frozen=True)
class SequenceTerms:
    """An id plus the exact terms at positions ``0..len-1``."""

    id: SequenceId
    terms: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.terms)


def franel(r: int = 3) -> SequenceId:
    return SequenceId(Family.FRANEL_R, r)


def domb(m: int = 2) -> SequenceId:
    return SequenceId(Family.DOMB_M, m)


CLF = SequenceId(Family.CLF)
APERY_B = SequenceId(Family.APERY_B)
APERY_A = SequenceId(Family.APERY_A)
CENTRAL_BINOM = SequenceId(Family.CENTRAL_BINOM)
G_SUM = SequenceId(Family.G_SUM)


def term(seq: SequenceId, n: int) -> int:
    """Exact value of the defining sum at index ``n``."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    fam = seq.family
    if fam is Family.CENTRAL_BINOM:
        return comb(2 * n, n)
    row = [comb(n, k) for k in range(n + 1)]
    if fam is Family.FRANEL_R:
        r = seq.param
        return sum(c**r for c in row)
    if fam is Family.DOMB_M:
        m = seq.param
        return sum(
            row[k] ** m * comb(2 * k, k) * comb(2 * (n - k), n - k) for k in range(n + 1)
        )
    if fam is Family.CLF:
        total = 0
        for k in range(n + 1):
            num = comb(2 * k, k) ** 2 * comb(2 * (n - k), n - k) ** 2
            total += exact_div(num, row[k], "CLF summand")
        return total
    if fam is Family.APERY_B:
        return sum(row[k] ** 2 * comb(n + k, k) for k in range(n + 1))
    if fam is Family.APERY_A:
        return sum(row[k] ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))
    if fam is Family.G_SUM:
        return sum(row[k] ** 2 * comb(2 * k, k) for k in range(n + 1))
    raise ValueError(f"unknown family {fam!r}")


# (n+1)^e x(n+1) = P(n) x(n) + Q(n) x(n-1), as (e, P, Q).
Recurrence = tuple[int, Callable[[int], int], Callable[[int], int]]

_CENTRAL_RECURRENCE: Recurrence = (1, lambda n: 2 * (2 * n + 1), lambda n: 0)

RECURRENCES: dict[SequenceId, Recurrence] = {
    franel(1): (0, lambda n: 2, lambda n: 0),
    franel(2): _CENTRAL_RECURRENCE,
    CENTRAL_BINOM: _CENTRAL_RECURRENCE,
    # Franel (1894)
    franel(3): (2, lambda n: 7 * n * n + 7 * n + 2, lambda n: 8 * n * n),
    franel(4): (3, lambda n: 2 * (2 * n + 1) * (3 * n * n + 3 * n + 1),
                lambda n: 4 * n * (4 * n - 1) * (4 * n + 1)),
    domb(1): (2, lambda n: 4 * (3 * n * n + 3 * n + 1), lambda n: -32 * n * n),
    domb(2): (3, lambda n: 2 * (2 * n + 1) * (5 * n * n + 5 * n + 2), lambda n: -64 * n**3),
    # CLF is 2^n d(1)
    CLF: (2, lambda n: 8 * (3 * n * n + 3 * n + 1), lambda n: -128 * n * n),
    # Apery (1979)
    APERY_B: (2, lambda n: 11 * n * n + 11 * n + 3, lambda n: n * n),
    APERY_A: (3, lambda n: 34 * n**3 + 51 * n * n + 27 * n + 5, lambda n: -(n**3)),
    # Zagier's sporadic list, (a, b, c) = (10, 3, 9)
    G_SUM: (2, lambda n: 10 * n * n + 10 * n + 3, lambda n: -9 * n * n),
}


def prefix(seq: SequenceId, n_max: int) -> SequenceTerms:
    """Terms ``0..n_max``, by recurrence where one is known, else by summation."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if seq in RECURRENCES:
        terms = _recur(seq, n_max)
    elif seq.family is Family.FRANEL_R:
        terms = _franel_sums(seq.param, n_max)
    else:  # every unparametrised family has a recurrence
        terms = _domb_sums(seq.param, n_max)
    return SequenceTerms(seq, tuple(terms))


def _recur(seq: SequenceId, n_max: int) -> list[int]:
    e, p, q = RECURRENCES[seq]
    context = f"{seq.label()} recurrence"
    out = [term(seq, n) for n in range(min(n_max, 1) + 1)]
    for n in range(1, n_max):
        num = p(n) * out[n] + q(n) * out[n - 1]
        out.append(exact_div(num, (n + 1) ** e, context))
    return out


def _franel_sums(r: int, n_max: int) -> list[int]:
    return [
        _symmetric_sum(lambda k: row[k] ** r, n)
        for n, row in enumerate(binomial.rows(n_max + 1))
    ]


def _domb_sums(m: int, n_max: int) -> list[int]:
    central = [1]
    for k in range(1, n_max + 1):
        central.append(exact_div(central[-1] * 2 * (2 * k - 1), k, "C(2k,k) column"))
    return [
        _symmetric_sum(lambda k: row[k] ** m * central[k] * central[n - k], n)
        for n, row in enumerate(binomial.rows(n_max + 1))
    ]


def _symmetric_sum(summand: Callable[[int], int], n: int) -> int:
    # sum over k = 0..n of a summand unchanged by k -> n-k: the first half
    # twice, plus the middle term when n is even
    total = 2 * sum(map(summand, range((n + 1) // 2)))
    return total + summand(n // 2) if n % 2 == 0 else total

