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

    lead(n) x(n+k) = c_0(n) x(n) + ... + c_{k-1}(n) x(n+k-1)

of order k = 1, 2 or 3, seeded with the summation values at n < k, with
every division checked exact.  That covers f(1..6), d(1..3), CLF, b, a, g
and the central binomials.  Each order has its own loop, which keeps the
last k terms in locals and divides with an inline ``divmod``; a remainder
raises :class:`~hankelforge.exact.InexactDivisionError` naming the
recurrence.  Only f(r >= 7) and d(m >= 4) are summed; their prefixes walk
the Pascal rows one from the next and keep a running column of C(2k,k).

All functions here are pure and keep no state between calls.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from math import comb
from typing import Callable, NamedTuple

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


class SequenceId(namedtuple("SequenceId", "family param")):
    """A :class:`Family` plus its ``int`` parameter (r or m, where used); any
    other family or parameter type (a bool included) is a ValueError."""

    __slots__ = ()

    def __new__(cls, family: Family, param: int = 0) -> "SequenceId":
        if not isinstance(family, Family):
            raise ValueError(f"unknown family {family!r}")
        if type(param) is not int:  # isinstance would let a bool through
            raise ValueError("the parameter must be an exact integer")
        if family in _PARAMETRIC:
            if param < 1:
                raise ValueError(f"{family.value} requires a parameter >= 1")
        elif param != 0:
            raise ValueError(f"{family.value} takes no parameter")
        return super().__new__(cls, family, param)

    def label(self) -> str:
        if self.family is Family.FRANEL_R:
            return f"franel[r={self.param}]"
        if self.family is Family.DOMB_M:
            return f"domb[m={self.param}]"
        return self.family.value


class SequenceTerms(NamedTuple):
    """An id plus its exact terms at positions ``0..n_max``."""

    id: SequenceId
    terms: tuple[int, ...]


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
    """Exact value of the defining sum at index ``n``, an ``int``."""
    if type(n) is not int:  # isinstance would let a bool through
        raise ValueError("the index must be an exact integer")
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
    raise ValueError(f"unknown family {fam!r}")  # _make and _replace skip __new__


class Recurrence(NamedTuple):
    """lead(n) x(n+k) = sum_i coeffs[i](n) x(n+i) for i < k = len(coeffs), n >= 0.

    ``lead`` has no zero at n >= 0, so the first k terms determine the rest.
    """

    lead: Callable[[int], int]
    coeffs: tuple[Callable[[int], int], ...]


_CENTRAL_RECURRENCE = Recurrence(lambda n: n + 1, (lambda n: 2 * (2 * n + 1),))

# The order-2 rows are the classical three-term recurrences
# (n+1)^e x(n+1) = P(n) x(n) + Q(n) x(n-1), shifted by one index.
#
# Franel conjectured (1894-95) that f(r) satisfies a recurrence of order
# floor((r+1)/2); Perlstadt, "Some recurrences for sums of powers of binomial
# coefficients", J. Number Theory 27 (1987), gave the order-3 ones for r = 5
# and 6.  The order-3 rows for f(5), f(6) and d(3) were recovered once by exact
# guessing, not at runtime: with unknowns c_ij (i = 0..3, j = 0..d, d = 6 for
# f(5) and d(3), 9 for f(6)) in sum_ij c_ij n^j x(n+i) = 0, one equation per n
# over the first 4(d+1)+12 summed terms, sympy's Matrix.nullspace has nullity
# 1.  The f(5) row matches Perlstadt, and all three agree with the summation
# for every index up to n = 1000.
RECURRENCES: dict[SequenceId, Recurrence] = {
    franel(1): Recurrence(lambda n: 1, (lambda n: 2,)),
    franel(2): _CENTRAL_RECURRENCE,
    CENTRAL_BINOM: _CENTRAL_RECURRENCE,
    # Franel (1894)
    franel(3): Recurrence(lambda n: (n + 2) ** 2,
                          (lambda n: 8 * (n + 1) ** 2, lambda n: 7 * (n + 1) * (n + 2) + 2)),
    franel(4): Recurrence(lambda n: (n + 2) ** 3,
                          (lambda n: 4 * (n + 1) * (4 * n + 3) * (4 * n + 5),
                           lambda n: 2 * (2 * n + 3) * (3 * (n + 1) * (n + 2) + 1))),
    # Perlstadt (1987)
    franel(5): Recurrence(
        lambda n: (n + 3) ** 4 * (55 * n**2 + 143 * n + 94),
        (lambda n: -32 * (n + 1) ** 4 * (55 * n**2 + 253 * n + 292),
         lambda n: (19415 * n**6 + 205799 * n**5 + 900543 * n**4 + 2082073 * n**3
                    + 2682770 * n**2 + 1827064 * n + 514048),
         lambda n: (1155 * n**6 + 14553 * n**5 + 75498 * n**4 + 205949 * n**3
                    + 310827 * n**2 + 245586 * n + 79320))),
    franel(6): Recurrence(
        lambda n: (n + 2) * (n + 3) ** 5 * (91 * n**3 + 364 * n**2 + 490 * n + 222),
        (lambda n: (-24 * (n + 1) ** 3 * (2 * n + 3) * (6 * n + 5) * (6 * n + 7)
                    * (91 * n**3 + 637 * n**2 + 1491 * n + 1167)),
         lambda n: (153881 * n**9 + 2462096 * n**8 + 17419983 * n**7 + 71536002 * n**6
                    + 187916733 * n**5 + 327503034 * n**4 + 378741807 * n**3
                    + 280311768 * n**2 + 120507876 * n + 22934340),
         lambda n: (n + 2) * (3458 * n**8 + 57057 * n**7 + 408555 * n**6 + 1656761 * n**5
                              + 4158211 * n**4 + 6610054 * n**3 + 6496560 * n**2
                              + 3609252 * n + 868140))),
    domb(1): Recurrence(lambda n: (n + 2) ** 2,
                        (lambda n: -32 * (n + 1) ** 2,
                         lambda n: 4 * (3 * (n + 1) * (n + 2) + 1))),
    domb(2): Recurrence(lambda n: (n + 2) ** 3,
                        (lambda n: -64 * (n + 1) ** 3,
                         lambda n: 2 * (2 * n + 3) * (5 * (n + 1) * (n + 2) + 2))),
    domb(3): Recurrence(
        lambda n: (n + 3) ** 4 * (21 * n**2 + 49 * n + 29),
        (lambda n: -512 * (n + 1) ** 4 * (21 * n**2 + 91 * n + 99),
         lambda n: 16 * (21 * n**6 + 217 * n**5 + 946 * n**4 + 2241 * n**3
                         + 3056 * n**2 + 2275 * n + 719),
         lambda n: 4 * (168 * n**6 + 2072 * n**5 + 10480 * n**4 + 27714 * n**3
                        + 40231 * n**2 + 30267 * n + 9209))),
    # CLF is 2^n d(1)
    CLF: Recurrence(lambda n: (n + 2) ** 2,
                    (lambda n: -128 * (n + 1) ** 2, lambda n: 8 * (3 * (n + 1) * (n + 2) + 1))),
    # Apery (1979)
    APERY_B: Recurrence(lambda n: (n + 2) ** 2,
                        (lambda n: (n + 1) ** 2, lambda n: 11 * (n + 1) * (n + 2) + 3)),
    APERY_A: Recurrence(lambda n: (n + 2) ** 3,
                        (lambda n: -((n + 1) ** 3),
                         lambda n: (2 * n + 3) * (17 * (n + 1) * (n + 2) + 5))),
    # Zagier's sporadic list, (a, b, c) = (10, 3, 9)
    G_SUM: Recurrence(lambda n: (n + 2) ** 2,
                      (lambda n: -9 * (n + 1) ** 2, lambda n: 10 * (n + 1) * (n + 2) + 3)),
}


def prefix(seq: SequenceId, n_max: int) -> SequenceTerms:
    """Terms ``0..n_max``, by recurrence where one is known, else by summation;
    ``n_max`` is an ``int``."""
    if type(n_max) is not int:  # isinstance would let a bool through
        raise ValueError("n_max must be an exact integer")
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
    # exact_div is reached only on a remainder, and raises there with the context
    lead, coeffs = RECURRENCES[seq]
    order = len(coeffs)
    context = f"{seq.label()} recurrence"
    out = [term(seq, n) for n in range(min(n_max + 1, order))]
    if n_max < order:
        return out
    steps = range(n_max + 1 - order)
    append = out.append
    if order == 1:
        (c0,) = coeffs
        (x0,) = out
        for n in steps:
            num, d = c0(n) * x0, lead(n)
            x0, r = divmod(num, d)
            if r:
                exact_div(num, d, context)
            append(x0)
    elif order == 2:
        c0, c1 = coeffs
        x0, x1 = out
        for n in steps:
            num, d = c0(n) * x0 + c1(n) * x1, lead(n)
            x2, r = divmod(num, d)
            if r:
                exact_div(num, d, context)
            append(x2)
            x0, x1 = x1, x2
    else:
        c0, c1, c2 = coeffs
        x0, x1, x2 = out
        for n in steps:
            num, d = c0(n) * x0 + c1(n) * x1 + c2(n) * x2, lead(n)
            x3, r = divmod(num, d)
            if r:
                exact_div(num, d, context)
            append(x3)
            x0, x1, x2 = x1, x2, x3
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

