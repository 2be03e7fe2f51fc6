"""Hankel matrices, their exact determinants, the leading principal minors
of a Hankel matrix given by its values, and the quotient check the Hankel
claims apply to them.

Three independent engines return the same exact value on any integer matrix,
and each caller names the one it runs:

* ``LAPLACE``  minor expansion with memoization, the small-order oracle
  (capped, factorial/2^n cost);
* ``BAREISS``  fraction-free elimination and the CLI's default;
* ``DODGSON``  the Hankel recursion on the antidiagonal values, the
  cross-check engine, which falls back to Bareiss on the whole matrix when
  the entries are not constant along antidiagonals or a leading minor the
  recursion divides by is zero (the result is tagged ``fallback=True``).

The claims need every leading principal minor of a Hankel matrix, and hold
the 2n+1 antidiagonal values it is made of.  ``hankel_minors`` takes the
minors from those values by the same recursion (~n^2 exact updates) and
builds no matrix; when a leading minor it divides by is zero, it keeps the
minors the recursion reached and finishes the higher orders block by block
from the values.

All of them except Laplace run on the kernels in ``_kernels``; Laplace is
written out here, apart from them, so that it stays an independent check.
Matrices are immutable after construction and nothing here keeps state
between calls, so everything here is safe to call from several threads at
once or in a forked child; the Hankel claims in ``verify`` run some of their
independent ``hankel_minors`` calls in one.
"""
from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Sequence

from . import _kernels as kernels
from .sequences import SequenceTerms

LAPLACE_ORDER_CAP = 10


class IntegerMatrix(namedtuple("IntegerMatrix", "order entries")):
    """Dense square matrix of arbitrary-precision integers.

    ``order`` is the dimension (at least 1).
    """

    __slots__ = ()

    def __new__(cls, order: int, entries: tuple[tuple[int, ...], ...]) -> "IntegerMatrix":
        if order < 1:
            raise ValueError("order must be at least 1")
        if len(entries) != order:
            raise ValueError("row count does not match order")
        for r in entries:
            if len(r) != order:
                raise ValueError("matrix is not square")
            for e in r:
                if not isinstance(e, int):
                    raise ValueError("entries must be exact integers")
        return super().__new__(cls, order, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        return cls(len(rows), tuple(tuple(r) for r in rows))


class DetResult(NamedTuple):
    """Exact determinant plus which engine produced it and at what cost."""

    value: int
    algorithm: str  # LAPLACE | BAREISS | DODGSON
    steps: int
    max_bits: int
    fallback: bool = False


class QuotientCheck(NamedTuple):
    """Outcome of dividing a determinant by ``base**exponent``."""

    quotient: int | None
    is_integer: bool
    is_odd: bool
    is_positive: bool


def build_hankel(terms: SequenceTerms | Sequence[int], n: int) -> IntegerMatrix:
    """The ``(n+1) x (n+1)`` matrix with entry ``(i, j) = terms[i+j]``."""
    seq = terms.terms if isinstance(terms, SequenceTerms) else terms
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(seq) < 2 * n + 1:
        raise ValueError(f"need at least {2 * n + 1} terms for order {n + 1}, got {len(seq)}")
    size = n + 1
    return IntegerMatrix(size, tuple(tuple(seq[i + j] for j in range(size)) for i in range(size)))


def _hankel_values(matrix: IntegerMatrix) -> tuple[int, ...] | None:
    """The 2n+1 antidiagonal values x_0..x_2n of an order-(n+1) matrix whose
    entry (i, j) is x_{i+j}, or None when some antidiagonal is not constant."""
    e = matrix.entries
    for upper, lower in zip(e, e[1:]):
        if upper[1:] != lower[:-1]:
            return None
    return e[0] + tuple(r[-1] for r in e[1:])


def det_laplace(matrix: IntegerMatrix, max_order: int = LAPLACE_ORDER_CAP) -> DetResult:
    """Minor expansion along the top rows, memoized over column subsets.

    Refuses orders above ``max_order``; meant as the independent oracle, not
    the workhorse.
    """
    n = matrix.order
    if n > max_order:
        raise ValueError(f"laplace engine capped at order {max_order}, got {n}")
    e = matrix.entries
    stats = [0, 0]  # steps, max_bits
    for r in e:
        for x in r:
            b = x.bit_length()
            if b > stats[1]:
                stats[1] = b
    memo: dict[tuple[int, ...], int] = {}

    def expand(cols: tuple[int, ...]) -> int:
        row = n - len(cols)
        if len(cols) == 1:
            return e[row][cols[0]]
        cached = memo.get(cols)
        if cached is not None:
            return cached
        total = 0
        negate = False
        for idx in range(len(cols)):
            a = e[row][cols[idx]]
            if a:
                t = a * expand(cols[:idx] + cols[idx + 1 :])
                stats[0] += 1
                tb = t.bit_length()
                if tb > stats[1]:
                    stats[1] = tb
                total = total - t if negate else total + t
            negate = not negate
        memo[cols] = total
        return total

    value = expand(tuple(range(n)))
    return DetResult(value, "LAPLACE", stats[0], stats[1])


def det_bareiss(matrix: IntegerMatrix) -> DetResult:
    """Fraction-free elimination; no order limit."""
    value, steps, max_bits = kernels.bareiss_det(matrix.entries)
    return DetResult(value, "BAREISS", steps, max_bits)


def det_dodgson(matrix: IntegerMatrix) -> DetResult:
    """The engine named DODGSON: the last minor of the fraction-free
    Chebyshev recursion on the antidiagonal values
    (``kernels.hankel_leading_minors``).  Falls back to Bareiss on the whole
    matrix when the matrix is not Hankel or a leading minor of order below
    ``order - 1`` is zero; ``steps``/``max_bits`` then cover both attempts."""
    steps = max_bits = 0
    values = _hankel_values(matrix)
    if values is not None:
        minors, steps, max_bits, ok = kernels.hankel_leading_minors(values)
        if ok:
            return DetResult(minors[-1], "DODGSON", steps, max_bits)
    value, b_steps, b_bits = kernels.bareiss_det(matrix.entries)
    return DetResult(value, "DODGSON", steps + b_steps, max(max_bits, b_bits), fallback=True)


def hankel_minors(values: Sequence[int]) -> list[int]:
    """Leading principal minors, order 1 through n+1, of the order-(n+1)
    Hankel matrix whose entry (i, j) is ``values[i+j]``.

    ``values`` are the 2n+1 antidiagonal values x_0..x_2n; an even count or
    a value that is not an exact integer is a ValueError, as it is for the
    entries of an :class:`IntegerMatrix`.  The Chebyshev recursion runs on
    the values.  When a leading minor it divides by is zero, the minors it
    reached are kept, and each higher-order block ``(x_{i+j})`` is built from
    the values and evaluated by Bareiss on its own.  No claim's matrix at
    its default bounds reaches that loop, so it stays simple (O(n^4) after
    an early zero) rather than fast; it is kept because a zero minor is
    what the claims test for.
    """
    for x in values:
        if not isinstance(x, int):
            raise ValueError("entries must be exact integers")
    minors, _, _, ok = kernels.hankel_leading_minors(values)  # refuses an even count
    if not ok:
        for size in range(len(minors) + 1, len(values) // 2 + 2):
            minors.append(kernels.bareiss_det([values[i : i + size] for i in range(size)])[0])
    return minors


def quotient_check(det_value: int, base: int, exponent: int) -> QuotientCheck:
    """Exact division test of ``det_value`` by ``base**exponent``.

    Non-divisibility is a reported outcome (``is_integer`` False, quotient
    None), not an error.  The power is built only when it can divide: 0 is
    divisible, and a nonzero value below ``2**(exponent * (base.bit_length()
    - 1))`` in absolute value, a lower bound on ``base**exponent``, is not.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if not det_value:
        return QuotientCheck(0, True, False, False)
    if exponent * (base.bit_length() - 1) >= det_value.bit_length():
        return QuotientCheck(None, False, False, False)
    q, r = divmod(det_value, base**exponent)
    if r:
        return QuotientCheck(None, False, False, False)
    return QuotientCheck(q, True, q % 2 != 0, q > 0)
