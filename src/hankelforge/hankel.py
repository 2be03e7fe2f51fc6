"""Hankel matrices, their exact determinants and leading principal minors,
and the quotient check the Hankel claims apply to them.

Three independent engines return the same exact value on any integer matrix,
and each caller names the one it runs:

* ``LAPLACE``  minor expansion with memoization, the small-order oracle
  (capped, factorial/2^n cost);
* ``BAREISS``  fraction-free elimination and the CLI's default; the same
  sweep reads off the leading principal minors up to the first zero one;
* ``DODGSON``  condensation by 2x2 minors, the cross-check engine, which
  falls back to Bareiss on the whole matrix when a zero interior pivot
  blocks condensation (the result is tagged ``fallback=True``).

The claims need every leading principal minor of a Hankel matrix.
``leading_principal_minors`` takes them from Hankel condensation of the
antidiagonal values (~n^2 exact updates) when the matrix is tagged
``hankel=True``, and from the Bareiss sweep otherwise or when condensation
meets a zero divisor.

All of them except Laplace run on the kernels in ``_kernels``; Laplace is
written out here, apart from them, so that it stays an independent check.
Matrices are immutable after construction, so everything here is safe for
concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _kernels as kernels
from .sequences import SequenceTerms

LAPLACE_ORDER_CAP = 10


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense square matrix of arbitrary-precision integers.

    ``order`` is the dimension (at least 1).  Instances tagged
    ``hankel=True`` were built from a sequence prefix and satisfy the
    constant-antidiagonal constraint, which is asserted on construction.
    """

    order: int
    entries: tuple[tuple[int, ...], ...]
    hankel: bool = False

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if len(self.entries) != self.order:
            raise ValueError("row count does not match order")
        for r in self.entries:
            if len(r) != self.order:
                raise ValueError("matrix is not square")
            for e in r:
                if not isinstance(e, int):
                    raise ValueError("entries must be exact integers")
        if self.hankel:
            for i in range(self.order):
                for j in range(self.order):
                    if self.entries[i][j] != self._antidiagonal(i + j):
                        raise ValueError("entry (i,j) must depend only on i+j")

    def _antidiagonal(self, s: int) -> int:
        i = 0 if s < self.order else s - self.order + 1
        return self.entries[i][s - i]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], hankel: bool = False) -> "IntegerMatrix":
        return cls(len(rows), tuple(tuple(r) for r in rows), hankel)

    def rows(self) -> list[list[int]]:
        """Mutable row-major copy for the kernels."""
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class DetResult:
    """Exact determinant plus which engine produced it and at what cost."""

    value: int
    algorithm: str  # LAPLACE | BAREISS | DODGSON
    steps: int
    max_bits: int
    fallback: bool = False


@dataclass(frozen=True)
class QuotientCheck:
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
    return IntegerMatrix(
        size, tuple(tuple(seq[i + j] for j in range(size)) for i in range(size)), hankel=True
    )


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
    value, steps, max_bits = kernels.bareiss_det(matrix.rows())
    return DetResult(value, "BAREISS", steps, max_bits)


def det_dodgson(matrix: IntegerMatrix) -> DetResult:
    """Condensation; falls back to Bareiss on the whole matrix at a zero
    interior pivot.  ``steps``/``max_bits`` then cover both attempts."""
    value, steps, max_bits, ok = kernels.dodgson_det(matrix.rows())
    if ok:
        return DetResult(value, "DODGSON", steps, max_bits)
    value, b_steps, b_bits = kernels.bareiss_det(matrix.rows())
    return DetResult(value, "DODGSON", steps + b_steps, max(max_bits, b_bits), fallback=True)


def leading_principal_minors(matrix: IntegerMatrix) -> list[int]:
    """Determinants of all leading blocks, order 1 through ``matrix.order``.

    A Hankel-tagged matrix is condensed from its antidiagonal values.  Any
    other matrix, and a Hankel one whose condensation meets a zero divisor,
    takes one fraction-free sweep when no leading minor vanishes; any
    remainder of the matrix after a zero pivot is evaluated block by block
    instead.
    """
    if matrix.hankel:
        seq = [matrix._antidiagonal(s) for s in range(2 * matrix.order - 1)]
        minors, _, _, ok = kernels.hankel_leading_minors(seq)
        if ok:
            return minors
    minors, _, _, completed = kernels.bareiss_leading_minors(matrix.rows())
    if completed:
        return minors
    out = list(minors)
    for size in range(len(out) + 1, matrix.order + 1):
        sub = [list(r[:size]) for r in matrix.entries[:size]]
        out.append(kernels.bareiss_det(sub)[0])
    return out


def quotient_check(det_value: int, base: int, exponent: int) -> QuotientCheck:
    """Exact division test of ``det_value`` by ``base**exponent``.

    Non-divisibility is a reported outcome (``is_integer`` False, quotient
    None), not an error.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    q, r = divmod(det_value, base**exponent)
    if r:
        return QuotientCheck(None, False, False, False)
    return QuotientCheck(q, True, q % 2 != 0, q > 0)
