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
and the central binomials.  Each polynomial is stored as integer
coefficients and tabulated for the whole prefix by running sums.  Each order
has its own loop, which keeps the last k terms in locals and divides with an
inline ``divmod``; a remainder raises
:class:`~hankelforge.exact.InexactDivisionError` naming the recurrence.
Only f(r >= 7) and d(m >= 4) are summed; their prefixes walk the Pascal
rows one from the next and keep a running column of C(2k,k).

All functions here are pure and keep no state between calls.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from itertools import accumulate, repeat
from math import comb
from operator import sub
from typing import Callable, NamedTuple

from . import binomial
from .exact import exact_div, exact_int


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
    """A :class:`Family` plus its parameter (r or m, where used), which must
    pass ``exact.exact_int``; anything else is a ValueError, also through
    ``_replace`` and ``_make``."""

    __slots__ = ()

    def __new__(cls, family: Family, param: int = 0) -> "SequenceId":
        if not isinstance(family, Family):
            raise ValueError(f"unknown family {family!r}")
        exact_int(param, "the parameter")
        if family in _PARAMETRIC:
            if param < 1:
                raise ValueError(f"{family.value} requires a parameter >= 1")
        elif param != 0:
            raise ValueError(f"{family.value} takes no parameter")
        return super().__new__(cls, family, param)

    @classmethod
    def _make(cls, iterable) -> "SequenceId":
        return cls(*iterable)  # namedtuple's own, which _replace calls, skips __new__

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
    """Exact value of the defining sum at index ``n``, an ``int``, of ``seq``,
    a :class:`SequenceId`."""
    if not isinstance(seq, SequenceId):
        raise ValueError(f"{seq!r} is not a SequenceId")
    exact_int(n, "the index", 0)
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
    return sum(row[k] ** 2 * comb(2 * k, k) for k in range(n + 1))  # Family.G_SUM


class Recurrence(NamedTuple):
    """lead(n) x(n+k) = sum_i coeffs[i](n) x(n+i) for i < k = len(coeffs), n >= 0.

    Each polynomial is a tuple of integer coefficients in ascending powers of
    n.  Every ``lead`` has nonnegative coefficients and a positive constant
    term, so lead(n) >= lead(0) > 0 at n >= 0 and the first k terms determine
    the rest.
    """

    lead: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]


_CENTRAL_RECURRENCE = Recurrence((1, 1), ((2, 4),))  # (n+1) x(n+1) = 2(2n+1) x(n)

# The order-2 rows are the classical three-term recurrences
# (n+1)^e x(n+1) = P(n) x(n) + Q(n) x(n-1), shifted by one index; lead is
# (n+2)^2 or (n+2)^3.
#
# Franel conjectured (1894-95) that f(r) satisfies a recurrence of order
# floor((r+1)/2); Perlstadt, "Some recurrences for sums of powers of binomial
# coefficients", J. Number Theory 27 (1987), gave the order-3 ones for r = 5
# and 6.  The order-3 rows for f(5), f(6) and d(3) were recovered once by exact
# guessing, not at runtime: with unknowns c_ij (i = 0..3, j = 0..d, d = 6 for
# f(5) and d(3), 9 for f(6)) in sum_ij c_ij n^j x(n+i) = 0, one equation per n
# over the first 4(d+1)+12 summed terms, sympy's Matrix.nullspace has nullity
# 1.  The f(5) row matches Perlstadt, and all three agree with the summation
# for every index up to n = 1000.  Their leads are (n+3)^4 (55n^2+143n+94),
# (n+2)(n+3)^5 (91n^3+364n^2+490n+222) and (n+3)^4 (21n^2+49n+29).
RECURRENCES: dict[SequenceId, Recurrence] = {
    franel(1): Recurrence((1,), ((2,),)),
    franel(2): _CENTRAL_RECURRENCE,
    CENTRAL_BINOM: _CENTRAL_RECURRENCE,
    # Franel (1894)
    franel(3): Recurrence((4, 4, 1), ((8, 16, 8), (16, 21, 7))),
    franel(4): Recurrence((8, 12, 6, 1), ((60, 188, 192, 64), (42, 82, 54, 12))),
    # Perlstadt (1987)
    franel(5): Recurrence(
        (7614, 21735, 24975, 14790, 4780, 803, 55),
        ((-9344, -45472, -90208, -92992, -52288, -15136, -1760),
         (514048, 1827064, 2682770, 2082073, 900543, 205799, 19415),
         (79320, 245586, 310827, 205949, 75498, 14553, 1155))),
    franel(6): Recurrence(
        (107892, 471906, 902664, 990468, 686943, 312369, 93182, 17598, 1911, 91),
        ((-2940840, -20590128, -63022824, -110571936, -122421192, -88617024, -41907336, -12478704,
          -2122848, -157248),
         (22934340, 120507876, 280311768, 378741807, 327503034, 187916733, 71536002, 17419983,
          2462096, 153881),
         (1736280, 8086644, 16602372, 19716668, 14926476, 7471733, 2473871, 522669, 63973, 3458))),
    domb(1): Recurrence((4, 4, 1), ((-32, -64, -32), (28, 36, 12))),
    domb(2): Recurrence((8, 12, 6, 1), ((-64, -192, -192, -64), (72, 138, 90, 20))),
    domb(3): Recurrence(
        (2349, 7101, 8559, 5262, 1751, 301, 21),
        ((-50688, -249344, -501248, -525312, -301568, -89600, -10752),
         (11504, 36400, 48896, 35856, 15136, 3472, 336),
         (36836, 121068, 160924, 110856, 41920, 8288, 672))),
    # CLF is 2^n d(1)
    CLF: Recurrence((4, 4, 1), ((-128, -256, -128), (56, 72, 24))),
    # Apery (1979)
    APERY_B: Recurrence((4, 4, 1), ((1, 2, 1), (25, 33, 11))),
    APERY_A: Recurrence((8, 12, 6, 1), ((-1, -3, -3, -1), (117, 231, 153, 34))),
    # Zagier's sporadic list, (a, b, c) = (10, 3, 9)
    G_SUM: Recurrence((4, 4, 1), ((-9, -18, -9), (23, 30, 10))),
}


def prefix(seq: SequenceId, n_max: int) -> SequenceTerms:
    """Terms ``0..n_max``, by recurrence where one is known, else by summation;
    ``seq`` is a :class:`SequenceId` and ``n_max`` an ``int``."""
    if not isinstance(seq, SequenceId):  # a plain tuple equal to one would match a RECURRENCES key
        raise ValueError(f"{seq!r} is not a SequenceId")
    exact_int(n_max, "n_max", 0)
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
    count = n_max + 1 - order
    tables = zip(*(_values(poly, count) for poly in (lead, *coeffs)))  # (lead(n), c_0(n), ...)
    append = out.append
    if order == 1:
        (x0,) = out
        for d, a0 in tables:
            num = a0 * x0
            x0, r = divmod(num, d)
            if r:
                exact_div(num, d, context)
            append(x0)
    elif order == 2:
        x0, x1 = out
        for d, a0, a1 in tables:
            num = a0 * x0 + a1 * x1
            x2, r = divmod(num, d)
            if r:
                exact_div(num, d, context)
            append(x2)
            x0, x1 = x1, x2
    else:
        x0, x1, x2 = out
        for d, a0, a1, a2 in tables:
            num = a0 * x0 + a1 * x1 + a2 * x2
            x3, r = divmod(num, d)
            if r:
                exact_div(num, d, context)
            append(x3)
            x0, x1, x2 = x1, x2, x3
    return out


def _values(poly: tuple[int, ...], count: int) -> list[int]:
    """poly(n) for n = 0..count-1; ``poly`` holds integer coefficients in
    ascending powers of n, of degree d.  The d-th difference is constant, and
    each lower column of differences is the running sum of the one above it
    after its value at 0, which Horner's rule at n = 0..d gives: d nested
    ``accumulate`` calls in C (Knuth, TAOCP Vol. 2, 4.6.4).  A table of at
    most d values is Horner's alone."""
    d = len(poly) - 1
    points = range(min(count, d + 1))
    table = [poly[-1]] * len(points)
    for c in poly[-2::-1]:  # Horner, at every point at once
        table = [v * n + c for v, n in zip(table, points)]
    if count <= d:
        return table
    starts = []  # the differences at n = 0, of order 0..d
    while table:
        starts.append(table[0])
        table = list(map(sub, table[1:], table))
    values = repeat(starts.pop(), count - d)
    for start in reversed(starts):
        values = accumulate(values, initial=start)
    return list(values)


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

