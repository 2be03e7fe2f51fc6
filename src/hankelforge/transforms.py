"""The binomial transform and its iterates.

These operate on plain integer lists (not :class:`SequenceTerms`) so that
residue sequences can be pushed through them unchanged.  The k-fold transform
``y[n] = sum_j C(n,j) k^(n-j) x[j]`` is ``((k+E)^n x)[0]`` for the shift
``E``, so one difference table gives every term: emit ``row[0]``, replace
``row[j]`` by ``k*row[j] + row[j+1]``, repeat.  That is ~N²/2 additions (and
small-int scalings for k ≥ 2) whatever k is, with no Pascal row.  Both are
pure and exact.
"""
from __future__ import annotations

from operator import add
from typing import Sequence


def binomial_transform(x: Sequence[int]) -> list[int]:
    """``y[n] = sum_k C(n,k) x[k]``; output has the input's length."""
    return iterated_transform(x, 1)


def iterated_transform(x: Sequence[int], k: int) -> list[int]:
    """k-fold binomial transform; k=0 returns a copy."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    if len(x) == 0:
        raise ValueError("input sequence must be non-empty")
    out = []
    row = list(x)
    while row:
        out.append(row[0])
        if k == 1:
            row = list(map(add, row, row[1:]))
        else:
            row = [k * a + b for a, b in zip(row, row[1:])]
    return out
