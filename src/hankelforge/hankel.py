"""Exact Hankel determinants, the leading principal minors of a Hankel
matrix, and the quotient check the Hankel claims apply to them.

Every function here takes the order-(n+1) Hankel matrix ``(x_{i+j})`` as its
2n+1 antidiagonal values x_0..x_2n (``hankel_minors`` a list of them); an even
count or a value whose type is not ``int`` (a bool included) is a ValueError.
Three independent engines return the same exact determinant on the values, as
a ``DetResult`` that does not name its engine: each caller names the one it runs.

* ``det_laplace``  minor expansion with memoization, the small-order oracle
  (capped at order ``LAPLACE_ORDER_CAP``, factorial/2^n cost);
* ``det_bareiss``  fraction-free elimination and the CLI's default;
* ``det_dodgson``  the Hankel recursion on the values, the cross-check engine,
  which falls back to Bareiss on the whole matrix when a leading minor the
  recursion divides by is zero (the result is tagged ``fallback=True``).

The claims need every leading principal minor.  ``hankel_minors`` is the one
route to them: it takes runs of 2n+1 values and returns each run's minors by
the same recursion (~n^2 exact updates per run).  It alone picks where:
when the runs are large together, it divides every step on all of them by
position between the process and one forked child
(``_fork.split_leading_minors``); otherwise each runs here.  A run whose
recursion meets a zero leading minor keeps the minors it reached and
finishes the higher orders block by block, each by ``det_bareiss`` on a
prefix of the values.

All of them except Laplace run on the kernels in ``_kernels``; Laplace is
written out here, apart from them, so that it stays an independent check.
Nothing here keeps state between calls, so everything here is safe to call
from several threads at once or in a forked child.
"""
from __future__ import annotations

from functools import cache
from typing import NamedTuple, Sequence

from . import _kernels as kernels

LAPLACE_ORDER_CAP = 10


class DetResult(NamedTuple):
    """Exact determinant plus what it cost the engine that the caller chose."""

    value: int
    steps: int
    max_bits: int
    fallback: bool = False


def _order(values: Sequence[int]) -> int:
    """The order n+1 of the Hankel matrix on the 2n+1 ``values``; a
    ValueError on an even count or a value that is not an exact integer."""
    if len(values) % 2 == 0:
        raise ValueError(f"need 2n+1 antidiagonal values, got {len(values)}")
    for x in values:
        if type(x) is not int:  # isinstance would let a bool through
            raise ValueError("entries must be exact integers")
    return len(values) // 2 + 1


def det_laplace(values: Sequence[int]) -> DetResult:
    """Minor expansion along the top rows, reading entry (i, j) as
    ``values[i + j]``.  The minor on each set of columns is expanded once:
    the inner expansion is wrapped in :func:`functools.cache`, a memo made
    afresh by each call and emptied before it returns.

    Refuses orders above ``LAPLACE_ORDER_CAP``, read at each call; meant as
    the independent oracle, not the workhorse.
    """
    n = _order(values)
    if n > LAPLACE_ORDER_CAP:
        raise ValueError(f"laplace engine capped at order {LAPLACE_ORDER_CAP}, got {n}")
    stats = [0, max(x.bit_length() for x in values)]  # steps, max_bits

    @cache
    def expand(cols: tuple[int, ...]) -> int:
        row = n - len(cols)
        if len(cols) == 1:
            return values[row + cols[0]]
        total = 0
        negate = False
        for idx in range(len(cols)):
            a = values[row + cols[idx]]
            if a:
                t = a * expand(cols[:idx] + cols[idx + 1 :])
                stats[0] += 1
                tb = t.bit_length()
                if tb > stats[1]:
                    stats[1] = tb
                total = total - t if negate else total + t
            negate = not negate
        return total

    value = expand(tuple(range(n)))
    expand.cache_clear()  # expand refers to itself, so only a full gc pass would free the memo
    return DetResult(value, stats[0], stats[1])


def det_bareiss(values: Sequence[int]) -> DetResult:
    """Fraction-free elimination on the whole matrix; no order limit."""
    size = _order(values)
    value, steps, max_bits = kernels.bareiss_det([values[i : i + size] for i in range(size)])
    return DetResult(value, steps, max_bits)


def det_dodgson(values: Sequence[int]) -> DetResult:
    """The engine named DODGSON: the last minor of the fraction-free
    Chebyshev recursion on the values (``kernels.hankel_leading_minors``).
    Falls back to :func:`det_bareiss` on the whole matrix when a leading
    minor of order below ``order - 1`` is zero; ``steps``/``max_bits`` then
    cover both attempts."""
    order = _order(values)
    minors, steps, max_bits = kernels.hankel_leading_minors(values)
    if len(minors) < order:
        b = det_bareiss(values)
        return DetResult(b.value, steps + b.steps, max(max_bits, b.max_bits), fallback=True)
    return DetResult(minors[-1], steps, max_bits)


# The break-even of forking a child for the minors, in _hankel_cost units
# summed over all the runs of one call.  Measured on a 2-vCPU x86_64 VM
# under CPython 3.11 as fresh `hankelforge verify --claim C --n-max N`
# processes, forked over in-process time, best of 7 or 11, three separate
# times (BENCH_lockstep.json): up to 6.7e8 units 1.01-1.36x (a process that
# forks also imports _fork, and each step sends a message each way),
# 7.8e8-9.9e8 units 0.99-1.11x, 1.0e9-1.5e9 units 0.89-1.07x (the noise),
# and from 1.6e9 units 0.78-0.99x.  At the default n <= 12 the claims stay
# below 2.6e7 units.
_FORK_MIN_COST = 1_000_000_000


def _hankel_cost(values: Sequence[int]) -> int:
    """The big-int work of the recursion on ``values`` up to a constant: it
    makes ~(2n+1)^2 updates on entries of ~bits(x_2n) bits."""
    return len(values) ** 2 * values[-1].bit_length() ** 2


def hankel_minors(runs: Sequence[Sequence[int]]) -> list[list[int]]:
    """For each run of 2n+1 values, the leading principal minors, order 1
    through n+1, of the order-(n+1) Hankel matrix whose entry (i, j) is
    ``values[i+j]``; one list per run, in order.

    This alone picks the route: one forked child takes part of every step of
    all the runs (:func:`._fork.split_leading_minors`) when their summed
    :func:`_hankel_cost` reaches ``_FORK_MIN_COST``, they have one length n >= 2
    (so that the child has a position) and :func:`._fork.can_fork` holds;
    otherwise the Chebyshev recursion runs on each here, with the same result.
    When a leading minor the recursion divides by is zero, the minors it
    reached are kept and each higher-order block is evaluated by
    :func:`det_bareiss` on its prefix of the values, here on either route.
    No claim's matrix at its default bounds reaches that loop, so it stays
    simple (O(n^4) after an early zero) rather than fast; it is kept because
    a zero minor is what the claims test for.
    """
    for values in runs:
        _order(values)
    forks = (sum(map(_hankel_cost, runs)) >= _FORK_MIN_COST and len(runs[0]) >= 5
             and len(set(map(len, runs))) == 1)
    if forks:
        from . import _fork  # loaded only here, so that the CLI's start-up does not compile it

        forks = _fork.can_fork()
    results = (_fork.split_leading_minors(runs) if forks
               else [kernels.hankel_leading_minors(values) for values in runs])
    for values, (minors, _, _) in zip(runs, results):
        for size in range(len(minors) + 1, len(values) // 2 + 2):
            minors.append(det_bareiss(values[: 2 * size - 1]).value)
    return [minors for minors, _, _ in results]


def quotient_check(det_value: int, base: int, exponent: int) -> int | None:
    """The exact quotient of ``det_value`` by ``base**exponent``, or None
    when the division is not exact.  A zero ``det_value`` gives 0, so test
    the result with ``is None``, never by truth.

    The power is built only when it can divide: a nonzero value below
    ``2**(exponent * (base.bit_length() - 1))`` in absolute value, a lower
    bound on ``base**exponent``, is not divisible.  A ``det_value``, ``base``
    or ``exponent`` whose type is not ``int`` (a bool included) is a ValueError.
    """
    if type(det_value) is not int or type(base) is not int or type(exponent) is not int:
        raise ValueError("det_value, base and exponent must be exact integers")
    if base < 2:
        raise ValueError("base must be at least 2")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if not det_value:
        return 0
    if exponent * (base.bit_length() - 1) >= det_value.bit_length():
        return None
    q, r = divmod(det_value, base**exponent)
    return None if r else q
