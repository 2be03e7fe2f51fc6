"""Exact determinant kernels.

Matrices are row-major sequences of Python ints, and a Hankel matrix is
passed as its 2n+1 antidiagonal values; inputs are never mutated (kernels
work on copies).  Every interior division is exact by construction and
checked: a remainder raises :class:`InexactDivisionError`.

Instrumentation conventions:

* ``steps``    counts interior entry updates (Bareiss) or tau entries
  (the Hankel recursion).
* ``max_bits`` is the largest absolute bit-length seen among inputs and
  every numerator before division.

The Hankel recursion's update is written once, in :func:`tau_step`:
:func:`hankel_leading_minors` runs it on every position of a step, and
``_fork.split_leading_minors`` on the positions each of its two processes
owns.
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


def bareiss_det(rows):
    """Fraction-free elimination (Bareiss 1968) with a row swap at each zero
    pivot.  Returns ``(det, steps, max_bits)``."""
    n = len(rows)
    m = [list(r) for r in rows]
    max_bits = _input_bits(m)
    steps = 0
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, steps, max_bits
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
    return sign * m[n - 1][n - 1], steps, max_bits


def hankel_leading_minors(seq):
    """Leading principal minors of the Hankel matrix ``(seq[i+j])`` by the
    fraction-free Chebyshev recursion.  Returns ``(minors, steps, max_bits,
    ok)``.

    ``seq`` holds the 2n+1 antidiagonal values x_0..x_2n of the order-(n+1)
    matrix.  tau_k(l) is the determinant of the rows (x_i .. x_{i+k}) for
    i = 0..k-1 bordered by the row (x_l .. x_{l+k}), and Delta_k is the
    order-k leading minor, so Delta_{k+1} = tau_k(k).  tau_k(l) / Delta_k is
    the moment of x^l times the k-th monic orthogonal polynomial of the
    sequence, and the three-term recurrence of those polynomials carries the
    moments from k to k+1 (Chebyshev's algorithm: Gautschi, *Orthogonal
    Polynomials: Computation and Approximation*, 2004; Krattenthaler,
    *Advanced Determinant Calculus*, 1999).  From tau_{-1} = 0,
    tau_0(l) = x_l and Delta_0 = 1, with a = tau_k(k+1) and
    c = tau_{k-1}(k), for l = k+1..2n-k-1

        w(l)         = (c tau_k(l) - Delta_{k+1} tau_{k-1}(l)) / Delta_k
        tau_{k+1}(l) = (Delta_{k+1} (tau_k(l+1) + w(l)) - a tau_k(l)) / Delta_k

    so each step (:func:`tau_step`) costs two exact divisions per entry, n^2
    entries in all.  The only divisors are the leading minors of order up to
    n-1: ``ok`` is False when one of them is 0, and ``minors`` then stops at
    the last order reached.  Those minors are exact; the caller finishes the
    higher orders itself.
    """
    if len(seq) % 2 == 0:
        raise ValueError(f"need 2n+1 antidiagonal values, got {len(seq)}")
    cur = list(seq)  # tau_k(l) for l = k..2n-k
    prev = [0] * (len(cur) + 2)  # tau_{k-1}(l) for l = k-1..2n-k+1
    divisor = 1  # Delta_k
    max_bits = max(x.bit_length() for x in cur)
    steps = 0
    minors = [cur[0]]
    while len(cur) > 1:
        if not divisor:
            return minors, steps, max_bits, False
        minor, a, c = cur[0], cur[1], prev[1]  # Delta_{k+1}, tau_k(k+1), tau_{k-1}(k)
        nxt, max_bits = tau_step(zip(cur[1:-1], cur[2:], prev[2:-2]),
                                 divisor, minor, a, c, max_bits)
        steps += len(nxt)
        prev, cur, divisor = cur, nxt, minor
        minors.append(cur[0])
    return minors, steps, max_bits, True


def tau_step(entries, divisor, minor, a, c, max_bits):
    """One step k -> k+1 of the recursion in :func:`hankel_leading_minors`,
    at the positions l that ``entries`` yields ``(tau_k(l), tau_k(l+1),
    tau_{k-1}(l))`` for, in that order.  ``divisor`` is Delta_k, ``minor``
    Delta_{k+1} = tau_k(k), ``a`` tau_k(k+1) and ``c`` tau_{k-1}(k).  Returns
    ``(nxt, max_bits)``: the list of tau_{k+1}(l), and ``max_bits`` raised to
    the bit-length of every numerator.

    The position l enters only through its own three entries, so the
    positions of one step can be taken in parts, here or in another process
    (``_fork.split_leading_minors``), with the same result.
    """
    nxt = []
    for t, t1, s in entries:
        u = c * t - minor * s
        if divisor == 1:
            w = u
        elif divisor == -1:
            w = -u
        else:
            w, rem = divmod(u, divisor)
            if rem:
                raise InexactDivisionError("chebyshev recursion division left a remainder")
        v = minor * (t1 + w) - a * t
        if divisor == 1:
            q = v
        elif divisor == -1:
            q = -v
        else:
            q, rem = divmod(v, divisor)
            if rem:
                raise InexactDivisionError("chebyshev recursion division left a remainder")
        b = u.bit_length()
        if b > max_bits:
            max_bits = b
        b = v.bit_length()
        if b > max_bits:
            max_bits = b
        nxt.append(q)
    return nxt, max_bits
