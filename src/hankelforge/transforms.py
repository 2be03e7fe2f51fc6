"""Binomial transform, its inverse and iterates, and two binomial convolutions.

These operate on plain integer lists (not :class:`SequenceTerms`) so that
residue sequences can be pushed through them unchanged.  Each walks the
Pascal rows it needs one from the next (:func:`binomial.rows`).  All are
pure and exact.
"""
from __future__ import annotations

from operator import mul
from typing import Sequence

from . import binomial


def binomial_transform(x: Sequence[int]) -> list[int]:
    """``y[n] = sum_k C(n,k) x[k]``; output has the input's length."""
    _require_nonempty(x)
    return [sum(map(mul, row, x)) for row in binomial.rows(len(x))]


def inverse_binomial_transform(x: Sequence[int]) -> list[int]:
    """Alternating-sign inverse: ``y[n] = sum_k (-1)^(n-k) C(n,k) x[k]``."""
    _require_nonempty(x)
    signed = [v if k % 2 == 0 else -v for k, v in enumerate(x)]
    out = []
    for n, row in enumerate(binomial.rows(len(x))):
        total = sum(map(mul, row, signed))
        out.append(total if n % 2 == 0 else -total)
    return out


def iterated_transform(x: Sequence[int], k: int) -> list[int]:
    """k-fold binomial transform; k=0 returns a copy."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    _require_nonempty(x)
    out = list(x)
    for _ in range(k):
        out = binomial_transform(out)
    return out


def binom_sq_convolution(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """``w[n] = sum_k C(n,k)^2 x[k] y[n-k]`` for equal-length inputs."""
    _require_equal_lengths(x, y)
    return [
        sum(c * c * x[k] * y[n - k] for k, c in enumerate(row))
        for n, row in enumerate(binomial.rows(len(x)))
    ]


def binom_convolution(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """``z[n] = sum_k C(n,k) x[k] y[n-k]`` for equal-length inputs."""
    _require_equal_lengths(x, y)
    return [
        sum(c * x[k] * y[n - k] for k, c in enumerate(row))
        for n, row in enumerate(binomial.rows(len(x)))
    ]


def _require_nonempty(x: Sequence[int]) -> None:
    if len(x) == 0:
        raise ValueError("input sequence must be non-empty")


def _require_equal_lengths(x: Sequence[int], y: Sequence[int]) -> None:
    _require_nonempty(x)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
