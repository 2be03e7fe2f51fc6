"""Pascal-triangle rows, built on demand.

Nothing is cached.  Callers that need consecutive rows walk them with
:func:`rows`, which builds each row from the one before by addition; a single
row comes from :func:`row` and a single coefficient from :func:`binom`.
"""
from __future__ import annotations

import math
from operator import add
from typing import Iterator


def rows(count: int) -> Iterator[tuple[int, ...]]:
    """Pascal rows ``0..count-1`` in order, each built from the previous one."""
    cur: tuple[int, ...] = (1,)
    for _ in range(count):
        yield cur
        cur = (1, *map(add, cur, cur[1:]), 1)


def row(n: int) -> tuple[int, ...]:
    """Pascal row ``n``: the tuple ``(C(n,0), ..., C(n,n))``."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    out = [1] * (n + 1)
    for k in range(1, n // 2 + 1):
        out[k] = out[k - 1] * (n - k + 1) // k
        out[n - k] = out[k]
    return tuple(out)


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside ``0 <= k <= n``."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)
