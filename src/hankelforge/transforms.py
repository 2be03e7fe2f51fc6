"""The binomial transform and its iterates.

These operate on plain integer lists (not :class:`SequenceTerms`) so that
residue sequences can be pushed through them unchanged.  The k-fold transform
``y[n] = sum_j C(n,j) k^(n-j) x[j]`` is ``((k+E)^n x)[0]`` for the shift
``E``, so one difference table gives every term: emit ``row[0]``, replace
``row[j]`` by ``k*row[j] + row[j+1]``, repeat.  That is ~N²/2 additions (and
small-int scalings for k ≥ 2) whatever k ≥ 1 is, with no Pascal row; k = 0
returns the input in one pass.  Both are pure and exact.

With a modulus m the same table runs on residues, packed into one int.  The
transforms are Z-linear, so the input and k are reduced mod m once (k ≡ 0
returns the residues).  Lane j of the packed row, L bits wide, holds row[j],
and one row of the table is ``k*R + (R >> L)``: three or four big-int
operations on N*L bits instead of N one-digit operations.  Every J rows each
lane is folded back to a few bits more than m has; L, the fold and J are
derived from the bit lengths of m and k mod m in :func:`_residue_table`.
"""
from __future__ import annotations

from operator import add
from typing import Sequence


def binomial_transform(x: Sequence[int]) -> list[int]:
    """``y[n] = sum_k C(n,k) x[k]``; output has the input's length."""
    return iterated_transform(x, 1)


def iterated_transform(x: Sequence[int], k: int, modulus: int | None = None) -> list[int]:
    """k-fold binomial transform; k=0 returns a copy without the difference
    table.  With ``modulus`` m, the residues in ``[0, m)`` of the same terms.
    ValueError when k, m or an entry is not an ``int`` (a bool or a float
    too), or on a negative k, an empty input or an m below 1."""
    if type(k) is not int:  # isinstance would let a bool through
        raise ValueError("iteration count must be an integer")
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    if len(x) == 0:
        raise ValueError("input sequence must be non-empty")
    if set(map(type, x)) != {int}:
        raise ValueError("entries must be exact integers")
    if modulus is None:
        row = list(x)
    else:
        if type(modulus) is not int:
            raise ValueError("modulus must be an integer")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        row = [a % modulus for a in x]
        k %= modulus
    if k == 0:
        return row
    if modulus is not None:
        return _residue_table(row, k, modulus)
    out = []
    while row:
        out.append(row[0])
        if k == 1:
            row = list(map(add, row, row[1:]))
        else:
            row = [k * a + b for a, b in zip(row, row[1:])]
    return out


def _residue_table(row: list[int], k: int, m: int) -> list[int]:
    """The difference table of the residues ``row`` (each in ``[0, m)``), for
    ``1 <= k < m``, with the whole row packed into one int ``R``: lane j,
    bits ``[j*L, (j+1)*L)``, holds row[j].  A row of the table is
    ``k*R + (R >> L)`` and the next output is lane 0.  The dead lanes above
    the live ones are dropped at each fold.

    Take b = bits(m), g = bits(k), L the least multiple of 8 that is at least
    b + 2g + 3, h = ceil((L + b) / 2), c = 2^h mod m and J = (L - h - 1) // g.
    A fold maps a lane v < 2^L to ``(v mod 2^h) + c*(v >> h)``, which is
    v - (2^h - c)*(v >> h) ≡ v (mod m), so every lane stays congruent to
    its entry of the exact residue table.  The lanes never overflow:

    * a lane right after a fold is below 2^h + c*2^(L-h) < 2^h + 2^(b+L-h)
      ≤ 2^(h+1), as c < m < 2^b and 2h ≥ L + b; an input residue is below
      m < 2^b ≤ 2^h;
    * a row maps lane j to k*v_j + v_(j+1), with 0 above the top lane, so it
      multiplies the largest lane, dead or live, by at most k + 1 ≤ 2^g, and
      J rows after a fold the largest lane is below
      2^(h+1) * (k+1)^J ≤ 2^(h+1+gJ) ≤ 2^L;
    * J ≥ 1, since L - h - 1 ≥ (L - b - 3) / 2 ≥ g.

    So each lane reads back exactly, and a carry never crosses into the lane
    above.  The outputs are reduced mod m at the end."""
    n = len(row)
    b, g = m.bit_length(), k.bit_length()
    width = (b + 2 * g + 10) // 8  # bytes per lane
    L = 8 * width
    h = (L + b + 1) // 2
    c = pow(2, h, m)
    J = (L - h - 1) // g
    low = int.from_bytes(((1 << h) - 1).to_bytes(width, "little") * n, "little")
    high = int.from_bytes(((1 << (L - h)) - 1).to_bytes(width, "little") * n, "little")
    lane = (1 << L) - 1
    R = int.from_bytes(b"".join(v.to_bytes(width, "little") for v in row), "little")
    out = []
    for t in range(1, n + 1):
        out.append(R & lane)
        R = R + (R >> L) if k == 1 else k * R + (R >> L)
        if t % J == 0:
            dead = t * L  # n - t lanes are live: shift t lanes out of the masks
            R = (R & (low >> dead)) + c * ((R >> h) & (high >> dead))
    return [v % m for v in out]
