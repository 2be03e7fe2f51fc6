"""The binomial transform and its iterates.

These operate on plain integer lists (not :class:`SequenceTerms`) so that
residue sequences can be pushed through them unchanged.  The transform walks
the Pascal rows it needs one from the next (:func:`binomial.rows`).  Both
are pure and exact.
"""
from __future__ import annotations

from operator import mul
from typing import Sequence

from . import binomial


def binomial_transform(x: Sequence[int]) -> list[int]:
    """``y[n] = sum_k C(n,k) x[k]``; output has the input's length."""
    _require_nonempty(x)
    return [sum(map(mul, row, x)) for row in binomial.rows(len(x))]


def iterated_transform(x: Sequence[int], k: int) -> list[int]:
    """k-fold binomial transform; k=0 returns a copy."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    _require_nonempty(x)
    out = list(x)
    for _ in range(k):
        out = binomial_transform(out)
    return out


def _require_nonempty(x: Sequence[int]) -> None:
    if len(x) == 0:
        raise ValueError("input sequence must be non-empty")

