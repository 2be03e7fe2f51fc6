"""Exact determinant kernels.

Matrices are row-major sequences of Python ints, and a Hankel matrix is
passed as its 2n+1 antidiagonal values; inputs are never mutated (kernels
work on copies).  Every interior division is exact by construction and
checked: a remainder raises :class:`InexactDivisionError`.

Instrumentation conventions:

* ``steps``    counts interior entry updates (Bareiss) or 2x2 condensation
  minors (Hankel condensation).
* ``max_bits`` is the largest absolute bit-length seen among inputs and
  every intermediate product before division.
"""
from __future__ import annotations

from .exact import InexactDivisionError


def _input_bits(rows) -> int:
    b = 0
    for r in rows:
        for e in r:
            eb = e.bit_length()
            if eb > b:
                b = eb
    return b


def _bareiss(rows):
    """Fraction-free elimination (Bareiss 1968) with a row swap at each zero
    pivot.  Returns ``(det, minors, steps, max_bits)``.

    Before any swap, diagonal entry ``k`` of the partly eliminated matrix is
    the leading principal minor of order ``k + 1``.  ``minors`` collects them
    up to and including the first zero one, which forces the first swap.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    max_bits = _input_bits(m)
    steps = 0
    sign = 1
    prev = 1
    minors = [m[0][0]]
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, minors, steps, max_bits
        piv = m[k][k]
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            mik = ri[k]
            for j in range(k + 1, n):
                t = ri[j] * piv - mik * rk[j]
                q, rem = divmod(t, prev)
                if rem:
                    raise InexactDivisionError("bareiss interior division left a remainder")
                tb = t.bit_length()
                if tb > max_bits:
                    max_bits = tb
                ri[j] = q
                steps += 1
            ri[k] = 0
        prev = piv
        if minors[-1]:
            minors.append(m[k + 1][k + 1])
    return sign * m[n - 1][n - 1], minors, steps, max_bits


def bareiss_det(rows):
    """Fraction-free elimination.  Returns ``(det, steps, max_bits)``."""
    det, _, steps, max_bits = _bareiss(rows)
    return det, steps, max_bits


def bareiss_leading_minors(rows):
    """Leading principal minors from one fraction-free elimination.

    Returns ``(minors, steps, max_bits, completed)``.  ``minors`` ends at
    the first zero minor (``completed`` False); the minors of higher order
    are then left to the caller, and ``steps``/``max_bits`` cover the whole
    elimination.
    """
    _, minors, steps, max_bits = _bareiss(rows)
    return minors, steps, max_bits, len(minors) == len(rows)


def hankel_leading_minors(seq):
    """Leading principal minors of the Hankel matrix ``(seq[i+j])`` by
    condensation.  Returns ``(minors, steps, max_bits, ok)``.

    ``seq`` holds the 2n+1 antidiagonal values x_0..x_2n of the order-(n+1)
    matrix.  Level s holds the shifted Hankel determinants
    H(k, s) = det(x_{k+i+j})_{0<=i,j<s} for k = 0..2n+2-2s: level 0 is all
    ones and level 1 is ``seq``.  By Desnanot-Jacobi (Krattenthaler,
    *Advanced Determinant Calculus*, 1999, section 2.3)

        H(k, s+1) * H(k+2, s-1) = H(k, s) * H(k+2, s) - H(k+1, s)^2,

    so each level costs one 2x2 minor and one exact division per entry, ~n^2
    in all, and H(0, s) is the order-s leading minor.  ``ok`` is False at
    the first zero divisor; ``minors`` then stops at the last order reached
    and the caller is expected to fall back to Bareiss on the whole matrix.
    """
    if len(seq) % 2 == 0:
        raise ValueError(f"need 2n+1 antidiagonal values, got {len(seq)}")
    cur = list(seq)
    prev = [1] * len(cur)
    max_bits = max(x.bit_length() for x in cur)
    steps = 0
    minors = [cur[0]]
    for _ in range(len(cur) // 2):
        nxt = []
        for k in range(len(cur) - 2):
            mid = cur[k + 1]
            t = cur[k] * cur[k + 2] - mid * mid
            tb = t.bit_length()
            if tb > max_bits:
                max_bits = tb
            d = prev[k + 2]
            if d == 1:
                q = t
            elif d == -1:
                q = -t
            elif d == 0:
                return minors, steps, max_bits, False
            else:
                q, rem = divmod(t, d)
                if rem:
                    raise InexactDivisionError("hankel condensation division left a remainder")
            nxt.append(q)
            steps += 1
        prev, cur = cur, nxt
        minors.append(cur[0])
    return minors, steps, max_bits, True
