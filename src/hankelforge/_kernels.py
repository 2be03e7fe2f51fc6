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

The Hankel recursion's update is written once, in :func:`tau_step`, and
driven once, by :func:`leading_minors`: on every position of each run, or
on the positions l <= n beside the forked child that
``_fork.split_leading_minors`` starts (this module does not import it).
"""
from __future__ import annotations

from .exact import InexactDivisionError


def bareiss_det(rows):
    """Fraction-free elimination (Bareiss 1968) with a row swap at each zero
    pivot.  Returns ``(det, steps, max_bits)``."""
    n = len(rows)
    m = [list(r) for r in rows]
    max_bits = max((e.bit_length() for r in m for e in r), default=0)
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


def leading_minors(runs, child=None):
    """Leading principal minors of the Hankel matrix ``(values[i+j])`` of
    each run by the fraction-free Chebyshev recursion.  Returns each run's
    ``(minors, steps, max_bits)``.

    A run holds the 2n+1 antidiagonal values x_0..x_2n of the order-(n+1)
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
    n-1: when one of them is 0, that run's ``minors`` stop at the last order
    reached, short of n+1.  Those minors are exact; the caller finishes the
    higher orders itself.

    The runs, of any lengths, go in lockstep.  Given ``child``, the channel
    to the forked child of ``_fork.split_leading_minors`` (the runs then have
    one n), this takes only the positions l <= n: per step, each run's
    tau_{k+1}(k+1) and tau_{k+1}(k+2) go out first, for the child's next
    step, and its tau_{k+1}(n+1) comes in last.  ``steps`` and ``max_bits``
    are then this process's.
    """
    for values in runs:
        if len(values) % 2 == 0:
            raise ValueError(f"need 2n+1 antidiagonal values, got {len(values)}")
    # tau_k(l) for l = k..2n-k, or k..n+1 with a child (the last is the child's)
    cur = [list(values if child is None else values[: len(values) // 2 + 2]) for values in runs]
    prev = [[0] * len(t) for t in cur]  # tau_{k-1}(l) from l = k-1
    divisor = [1] * len(runs)  # Delta_k
    max_bits = [max(x.bit_length() for x in values) for values in runs]
    steps = [0] * len(runs)
    minors = [[t[0]] for t in cur]
    head = None if child is None else 3  # with a child, positions k+1 and k+2 go first
    live = range(len(runs))
    while live := [r for r in live if divisor[r] and len(cur[r]) > 1]:
        nxts = []
        for r in live:
            t, s = cur[r], prev[r]  # Delta_{k+1}, tau_k(k+1), tau_{k-1}(k) are t[0], t[1], s[1]
            nxt, max_bits[r] = tau_step(zip(t[1:head], t[2:], s[2:]),
                                        divisor[r], t[0], t[1], s[1], max_bits[r])
            steps[r] += len(nxt)
            nxts.append(nxt)
        if child is not None:
            size = len(cur[live[0]])  # n+2-k, the same for every run
            if size > 4:  # the child takes a step k+1
                child.send(nxts)
            for r, nxt in zip(live, nxts):
                t, s = cur[r], prev[r]
                rest, max_bits[r] = tau_step(zip(t[3:], t[4:], s[4:]),
                                             divisor[r], t[0], t[1], s[1], max_bits[r])
                steps[r] += len(rest)
                nxt += rest
            if size > 3:  # the child took a step k
                for nxt, last in zip(nxts, child.recv()):
                    nxt.append(last)  # tau_{k+1}(n+1)
        for r, nxt in zip(live, nxts):
            prev[r], cur[r], divisor[r] = cur[r], nxt, cur[r][0]
            minors[r].append(nxt[0])
    return list(zip(minors, steps, max_bits))


def tau_step(entries, divisor, minor, a, c, max_bits):
    """One step k -> k+1 of the recursion in :func:`leading_minors`,
    at the positions l that ``entries`` yields ``(tau_k(l), tau_k(l+1),
    tau_{k-1}(l))`` for, in that order.  ``divisor`` is Delta_k, ``minor``
    Delta_{k+1} = tau_k(k), ``a`` tau_k(k+1) and ``c`` tau_{k-1}(k).  Returns
    ``(nxt, max_bits)``: the list of tau_{k+1}(l), and ``max_bits`` raised to
    the bit-length of every numerator.

    The position l enters only through its own three entries, so the
    positions of one step can be taken in parts, in this process or in a
    forked child (``_fork.split_leading_minors``), with the same result.
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
