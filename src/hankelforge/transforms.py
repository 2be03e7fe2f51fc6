"""The binomial transform and its iterates.

These operate on plain integer lists (not :class:`SequenceTerms`) so that
residue sequences can be pushed through them unchanged.  The k-fold transform
``y[n] = sum_j C(n,j) k^(n-j) x[j]`` is ``((k+E)^n x)[0]`` for the shift
``E``, so one difference table gives every term: emit ``row[0]``, replace
``row[j]`` by ``k*row[j] + row[j+1]``, repeat.  That is ~N²/2 additions (and
small-int scalings for k ≥ 2) whatever k ≥ 1 is, with no Pascal row; k = 0
returns the input in one pass.  Both are pure and exact.

With a modulus m the same table runs on residues.  The transforms are
Z-linear, so the input is reduced mod m once and the table is reduced again
every J rows, J = (B - bits(m)) // bits(k) for the interpreter's int digit
width B (at least 1).  A row grows its entries by at most a factor
k+1 ≤ 2^bits(k), so between reductions they stay below 2^B: one machine digit
when m does.  Python ints do not overflow, so J sets the speed only; every
residue is the same whatever J is.
"""
from __future__ import annotations

import sys
from operator import add
from typing import Sequence


def binomial_transform(x: Sequence[int]) -> list[int]:
    """``y[n] = sum_k C(n,k) x[k]``; output has the input's length."""
    return iterated_transform(x, 1)


def iterated_transform(x: Sequence[int], k: int, modulus: int | None = None) -> list[int]:
    """k-fold binomial transform; k=0 returns a copy without the difference
    table.  With ``modulus`` m, the residues in ``[0, m)`` of the same terms."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    if len(x) == 0:
        raise ValueError("input sequence must be non-empty")
    if modulus is None:
        row, every = list(x), 0
    else:
        if modulus < 1:
            raise ValueError("modulus must be positive")
        row = [a % modulus for a in x]
        every = max(1, (sys.int_info.bits_per_digit - modulus.bit_length())
                    // max(1, k.bit_length()))
    if k == 0:
        return row
    out = []
    since = 0
    while row:
        out.append(row[0])
        if k == 1:
            row = list(map(add, row, row[1:]))
        else:
            row = [k * a + b for a, b in zip(row, row[1:])]
        since += 1
        if since == every:
            row = [a % modulus for a in row]
            since = 0
    return out if modulus is None else [a % modulus for a in out]
