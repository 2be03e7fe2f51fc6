"""The binomial transform and its iterates.

These operate on plain integer lists (not :class:`SequenceTerms`) so that
residue sequences can be pushed through them unchanged.  The k-fold transform
``y[n] = sum_j C(n,j) k^(n-j) x[j]`` is ``((k+E)^n x)[0]`` for the shift
``E``, so one difference table gives every term: row 0 is x, row t+1 maps
entry j to ``k*row[j] + row[j+1]``, and y[t] is entry 0 of row t.  k = 0
returns the input in one pass.  Both paths are pure and exact.

The exact path runs the table down its columns instead of along its rows.
Column j, entry t is entry j of row t, so column j is column j+1 run through
``c -> k*c + next``; scaled by ``k^(N-1-j-t)`` it is the plain running sum of
column j+1 after the start ``k^(N-1-j)*x[j]``, which ``itertools.accumulate``
takes in C.  Column 0 then holds ``k^(N-1-t)*y[t]``, and each division back
to y[t] is checked.  That is ~N²/2 additions whatever k ≥ 1 is, with no
Pascal row, and a list every 8 columns instead of one per row.  The scaling
adds up to (N-1)*bits(k) bits to each entry: cheap for a small k, but not
for a k of many digits (see :func:`_exact_table`).

With a modulus m the same table runs on residues, packed into one int.  The
transforms are Z-linear, so the input and k are reduced mod m once (k ≡ 0
returns the residues).  Lane j of the packed row, L bits wide, holds row[j],
and one row of the table is ``k*R + (R >> L)``: three or four big-int
operations on N*L bits instead of N one-digit operations.  Every J rows each
lane is folded back to a few bits more than m has; L, the fold and J are
derived from the bit lengths of m and k mod m in :func:`_residue_table`.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

from .exact import exact_div, exact_int, exact_ints

# The exact table makes a list of its running column every _CHAIN columns.  In
# between, each column is a lazy accumulate over the one to its right, so an
# entry passes through at most _CHAIN nested iterators in C; an unbroken chain
# would nest N deep.  8 was as fast as any of 2, 4, ..., 64 at N = 200 and 600.
_CHAIN = 8


def binomial_transform(x: Sequence[int]) -> list[int]:
    """``y[n] = sum_k C(n,k) x[k]``, the k = 1 case of
    :func:`iterated_transform`: running sums down the difference table's
    columns, with no scaling and no division.  The output has the input's
    length."""
    return iterated_transform(x, 1)


def iterated_transform(x: Sequence[int], k: int, modulus: int | None = None) -> list[int]:
    """k-fold binomial transform ``y[n] = sum_j C(n,j) k^(n-j) x[j]``, as a
    new list; k=0 returns a copy without the difference table.  Without a
    modulus the table runs down its columns as running sums
    (:func:`_exact_table`); with ``modulus`` m it returns the residues in
    ``[0, m)`` of the same terms, from a packed table (:func:`_residue_table`).
    k must pass ``exact.exact_int`` from 0, m from 1, and x ``exact.exact_ints``;
    an empty x is a ValueError too."""
    exact_int(k, "iteration count", 0)
    if not exact_ints(x, "entries"):
        raise ValueError("input sequence must be non-empty")
    if modulus is None:
        row = list(x)
    else:
        exact_int(modulus, "modulus", 1)
        row = [a % modulus for a in x]
        k %= modulus
    if k == 0:
        return row
    if modulus is not None:
        return _residue_table(row, k, modulus)
    return _exact_table(row, k)


def _exact_table(row: list[int], k: int) -> list[int]:
    """The exact difference table of ``row`` for ``k >= 1``, run down its
    columns.  With D_0 = row and D_(t+1)[j] = k*D_t[j] + D_t[j+1], the output
    is y[t] = D_t[0].  Column j, C_j[t] = D_t[j] for t < N - j, obeys
    C_j[t+1] = k*C_j[t] + C_(j+1)[t].  Scaled as H_j[t] = k^(N-1-j-t)*C_j[t],
    that is H_j[t+1] = H_j[t] + H_(j+1)[t] with H_j[0] = k^(N-1-j)*row[j]: a
    running sum of H_(j+1) after that start, one ``accumulate`` in C, from
    H_(N-1) = [row[N-1]] leftwards.  Then y[t] = H_0[t] / k^(N-1-t), a division
    exact by construction that ``exact_div`` checks all the same; for k = 1
    every power is 1 and H_0 is y.

    The columns are chained lazily and made a list every ``_CHAIN`` columns
    only, so the chain nests at most ``_CHAIN`` iterators deep.  The cost is
    ~N²/2 big-int additions, as for the row-by-row table, at less interpreter
    work per addition.  The scaling widens every entry by up to
    (N-1)*bits(k) bits.  On f(3)'s prefix at N = 600 (CPython 3.11, a 2-vCPU
    x86_64 VM) this took 0.73x the row-by-row table's time for k = 1, 0.47x
    for k = 2 and 0.85x for k = 1000, but 1.35x for k = 2^64.  ``row`` is not
    changed."""
    column: Iterable[int] = []
    scale = 1
    for count, v in enumerate(reversed(row), 1):
        column = accumulate(column, initial=v * scale)
        scale *= k
        if count % _CHAIN == 0:
            column = list(column)
    if k == 1:
        return list(column)
    out = []
    for h in column:
        scale //= k  # k^(N-1-t) for the t-th entry
        out.append(exact_div(h, scale, "the scaled difference table"))
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
