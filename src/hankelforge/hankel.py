"""Exact Hankel determinants, the leading principal minors of a Hankel
matrix, and the quotient check the Hankel claims apply to them.

Every function here takes the order-(n+1) Hankel matrix ``(x_{i+j})`` as its
2n+1 antidiagonal values x_0..x_2n; an even count or a value that is not an
exact integer is a ValueError.  Three independent engines return the same
exact determinant on the values, and each caller names the one it runs:

* ``LAPLACE``  minor expansion with memoization, the small-order oracle
  (capped, factorial/2^n cost);
* ``BAREISS``  fraction-free elimination and the CLI's default;
* ``DODGSON``  the Hankel recursion on the values, the cross-check engine,
  which falls back to Bareiss on the whole matrix when a leading minor the
  recursion divides by is zero (the result is tagged ``fallback=True``).

The claims need every leading principal minor.  ``hankel_minors`` takes them
from the values by the same recursion (~n^2 exact updates); when a leading
minor it divides by is zero, ``finish_minors`` keeps the minors the recursion
reached and finishes the higher orders block by block.

All of them except Laplace run on the kernels in ``_kernels``; Laplace is
written out here, apart from them, so that it stays an independent check.
Nothing here keeps state between calls, so everything here is safe to call
from several threads at once or in a forked child.  The Hankel claims in
``verify`` run some of their independent ``hankel_minors`` calls in one, and a
run they divide by position between the process and one
(``_fork.split_leading_minors``) ends in ``finish_minors``.  ``hankel_minors``
itself always runs in the calling process, and the tests compare the forked
routes with it.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from . import _kernels as kernels

LAPLACE_ORDER_CAP = 10


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


def _order(values: Sequence[int]) -> int:
    """The order n+1 of the Hankel matrix on the 2n+1 ``values``; a
    ValueError on an even count or a value that is not an exact integer."""
    if len(values) % 2 == 0:
        raise ValueError(f"need 2n+1 antidiagonal values, got {len(values)}")
    for x in values:
        if not isinstance(x, int):
            raise ValueError("entries must be exact integers")
    return len(values) // 2 + 1


def _block(values: Sequence[int], size: int) -> list[Sequence[int]]:
    """The rows of the leading order-``size`` block ``(x_{i+j})``."""
    return [values[i : i + size] for i in range(size)]


def det_laplace(values: Sequence[int], max_order: int = LAPLACE_ORDER_CAP) -> DetResult:
    """Minor expansion along the top rows, memoized over column subsets.

    Refuses orders above ``max_order``; meant as the independent oracle, not
    the workhorse.
    """
    n = _order(values)
    if n > max_order:
        raise ValueError(f"laplace engine capped at order {max_order}, got {n}")
    e = _block(values, n)
    stats = [0, max(x.bit_length() for x in values)]  # steps, max_bits
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


def det_bareiss(values: Sequence[int]) -> DetResult:
    """Fraction-free elimination on the whole matrix; no order limit."""
    value, steps, max_bits = kernels.bareiss_det(_block(values, _order(values)))
    return DetResult(value, "BAREISS", steps, max_bits)


def det_dodgson(values: Sequence[int]) -> DetResult:
    """The engine named DODGSON: the last minor of the fraction-free
    Chebyshev recursion on the values (``kernels.hankel_leading_minors``).
    Falls back to Bareiss on the whole matrix when a leading minor of order
    below ``order - 1`` is zero; ``steps``/``max_bits`` then cover both
    attempts."""
    order = _order(values)
    minors, steps, max_bits, ok = kernels.hankel_leading_minors(values)
    if ok:
        return DetResult(minors[-1], "DODGSON", steps, max_bits)
    value, b_steps, b_bits = kernels.bareiss_det(_block(values, order))
    return DetResult(value, "DODGSON", steps + b_steps, max(max_bits, b_bits), fallback=True)


def hankel_minors(values: Sequence[int]) -> list[int]:
    """Leading principal minors, order 1 through n+1, of the order-(n+1)
    Hankel matrix whose entry (i, j) is ``values[i+j]``.

    The Chebyshev recursion runs on the values in this process, and
    :func:`finish_minors` completes what it reached.  This is the reference
    route: the Hankel claims' forked routes are tested against it.
    """
    _order(values)
    minors, _, _, ok = kernels.hankel_leading_minors(values)
    return finish_minors(values, minors, ok)


def finish_minors(values: Sequence[int], minors: list[int], ok: bool) -> list[int]:
    """``minors``, the leading minors the recursion reached on ``values``,
    completed to order n+1 in place.

    When a leading minor the recursion divides by is zero (``ok`` False),
    each higher-order block is evaluated by Bareiss on its own.  No claim's
    matrix at its default bounds reaches that loop, so it stays simple
    (O(n^4) after an early zero) rather than fast; it is kept because a zero
    minor is what the claims test for.
    """
    if not ok:
        for size in range(len(minors) + 1, len(values) // 2 + 2):
            minors.append(kernels.bareiss_det(_block(values, size))[0])
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
