"""Exact Hankel determinants, the leading principal minors of a Hankel
matrix, and the quotient check the Hankel claims apply to them.

Every function here takes the order-(n+1) Hankel matrix ``(x_{i+j})`` as its
2n+1 antidiagonal values x_0..x_2n (``hankel_minors`` a list or tuple of
them), as a list or tuple of ints (``exact.exact_ints``); anything else, or an
even count, is a ValueError.
Inputs are never mutated, and every interior division is exact by
construction and checked: a remainder raises :class:`InexactDivisionError`.
Three independent engines return the same exact determinant on the values, as
a ``DetResult`` that does not name its engine: each caller names the one it runs.

* ``det_laplace``  minor expansion with memoization, the small-order oracle
  (capped at order ``LAPLACE_ORDER_CAP``, factorial/2^n cost), written out
  apart from the kernels below so that it stays an independent check;
* ``det_bareiss``  fraction-free elimination (``_bareiss_det``) and the CLI's
  default;
* ``det_dodgson``  the Hankel recursion on the values, the cross-check engine,
  which falls back to Bareiss on the whole matrix when a leading minor the
  recursion divides by is zero (the result is tagged ``fallback=True``).

The claims need every leading principal minor.  ``hankel_minors`` is the one
route to them: it takes runs of 2n+1 values and returns each run's minors by
the same recursion (~n^2 exact updates per run), on all the runs in lockstep
by one driver, ``_leading_minors``, whose update is written once, in
``_tau_step``.  It alone picks where: when the runs are large together, the
driver takes the positions l <= n of every step and one forked child the rest
(``_split_leading_minors``); otherwise it takes every position here.  There a
step has a second form, ``_packed_step``, for a run whose entries stay narrow
(the parity claim's stay in {-1, 0, 1}): each row is one int of signed 8-bit
lanes, and the step is a handful of whole-row operations instead of one
update per entry.  A run is packed while its rows are at least
``_PACK_MIN_LEN`` long, its numerators provably fit their lanes and the step
divides by +-1, and goes on in list form once any of these fails; both forms
give the same minors and ``max_bits``.  A run
whose recursion meets a zero leading minor keeps the minors it reached and
finishes the higher orders block by block, each by ``det_bareiss`` on a
prefix of the values.

The kernels' ``steps`` counts interior entry updates (Bareiss) or tau entries
(the recursion: K(2n-K) for a run of 2n+1 values that took K steps), and
their ``max_bits`` is the largest absolute bit-length seen among the inputs
and every numerator before division.
Nothing here keeps state between calls, so everything here is safe to call
from several threads at once or in a forked child.
"""
from __future__ import annotations

from functools import cache
from typing import NamedTuple, Sequence

from .exact import InexactDivisionError, exact_int, exact_ints

LAPLACE_ORDER_CAP = 10


class DetResult(NamedTuple):
    """Exact determinant plus what it cost the engine that the caller chose."""

    value: int
    steps: int
    max_bits: int
    fallback: bool = False


def _order(values: Sequence[int]) -> int:
    """The order n+1 of the Hankel matrix on the 2n+1 ``values``; a
    ValueError on an even count or on what ``exact_ints`` refuses."""
    if len(exact_ints(values, "entries")) % 2 == 0:
        raise ValueError(f"need 2n+1 antidiagonal values, got {len(values)}")
    return len(values) // 2 + 1


def det_laplace(values: Sequence[int]) -> DetResult:
    """Minor expansion along the top rows, reading entry (i, j) as
    ``values[i + j]``.  The minor on each set of columns is expanded once:
    the inner expansion is wrapped in :func:`functools.cache`, a memo made
    afresh by each call and emptied before it returns.

    Refuses orders above ``LAPLACE_ORDER_CAP``, read at each call; meant as
    the independent oracle, not the workhorse.
    """
    n = _order(values)
    if n > LAPLACE_ORDER_CAP:
        raise ValueError(f"laplace engine capped at order {LAPLACE_ORDER_CAP}, got {n}")
    stats = [0, max(x.bit_length() for x in values)]  # steps, max_bits

    @cache
    def expand(cols: tuple[int, ...]) -> int:
        row = n - len(cols)
        if len(cols) == 1:
            return values[row + cols[0]]
        total = 0
        negate = False
        for idx in range(len(cols)):
            a = values[row + cols[idx]]
            if a:
                t = a * expand(cols[:idx] + cols[idx + 1 :])
                stats[0] += 1
                tb = t.bit_length()
                if tb > stats[1]:
                    stats[1] = tb
                total = total - t if negate else total + t
            negate = not negate
        return total

    value = expand(tuple(range(n)))
    expand.cache_clear()  # expand refers to itself, so only a full gc pass would free the memo
    return DetResult(value, stats[0], stats[1])


def det_bareiss(values: Sequence[int]) -> DetResult:
    """Fraction-free elimination on the whole matrix; no order limit."""
    size = _order(values)
    value, steps, max_bits = _bareiss_det([values[i : i + size] for i in range(size)])
    return DetResult(value, steps, max_bits)


def det_dodgson(values: Sequence[int]) -> DetResult:
    """The engine named DODGSON: the last minor of the fraction-free
    Chebyshev recursion on the values (:func:`_leading_minors`).
    Falls back to :func:`det_bareiss` on the whole matrix when a leading
    minor of order below ``order - 1`` is zero; ``steps``/``max_bits`` then
    cover both attempts."""
    order = _order(values)
    minors, steps, max_bits = _leading_minors([values])[0]
    if len(minors) < order:
        b = det_bareiss(values)
        return DetResult(b.value, steps + b.steps, max(max_bits, b.max_bits), fallback=True)
    return DetResult(minors[-1], steps, max_bits)


# The break-even of forking a child for the minors, in _hankel_cost units
# summed over all the runs of one call.  Measured on a 2-vCPU x86_64 VM
# under CPython 3.11 as fresh `hankelforge verify --claim C --n-max N`
# processes, forked over in-process time, best of 7 or 11, three separate
# times (BENCH_lockstep.json): up to 6.7e8 units 1.01-1.36x (a process that
# forks also imports _fork, and each step sends a message each way),
# 7.8e8-9.9e8 units 0.99-1.11x, 1.0e9-1.5e9 units 0.89-1.07x (the noise),
# and from 1.6e9 units 0.78-0.99x.  At the default n <= 12 the claims stay
# below 2.6e7 units.
_FORK_MIN_COST = 1_000_000_000


def _hankel_cost(values: Sequence[int]) -> int:
    """The big-int work of the recursion on ``values`` up to a constant: it
    makes ~(2n+1)^2 updates on entries of ~bits(x_2n) bits."""
    return len(values) ** 2 * values[-1].bit_length() ** 2


def hankel_minors(runs: Sequence[Sequence[int]]) -> list[list[int]]:
    """For each run of 2n+1 values, the leading principal minors, order 1
    through n+1, of the order-(n+1) Hankel matrix whose entry (i, j) is
    ``values[i+j]``; one list per run, in order.

    This alone picks the route: one forked child takes part of every step of
    all the runs (:func:`_split_leading_minors`) when their summed
    :func:`_hankel_cost` reaches ``_FORK_MIN_COST``, they have one length n >= 2
    (so that the child has a position) and :func:`._fork.can_fork` holds;
    otherwise the Chebyshev recursion runs here on all of them in lockstep,
    whatever their lengths, with the same result.
    When a leading minor the recursion divides by is zero, the minors it
    reached are kept and each higher-order block is evaluated by
    :func:`det_bareiss` on its prefix of the values, here on either route.
    No claim's matrix at its default bounds reaches that loop, so it stays
    simple (O(n^4) after an early zero) rather than fast; it is kept because
    a zero minor is what the claims test for.
    """
    if not isinstance(runs, (list, tuple)):
        raise ValueError("runs must be a list or tuple")
    for values in runs:
        _order(values)
    forks = (sum(map(_hankel_cost, runs)) >= _FORK_MIN_COST and len(runs[0]) >= 5
             and len(set(map(len, runs))) == 1)
    if forks:
        from . import _fork  # loaded only here, so that the CLI's start-up does not compile it

        forks = _fork.can_fork()
    results = _split_leading_minors(runs) if forks else _leading_minors(runs)
    for values, (minors, _, _) in zip(runs, results):
        for size in range(len(minors) + 1, len(values) // 2 + 2):
            minors.append(det_bareiss(values[: 2 * size - 1]).value)
    return [minors for minors, _, _ in results]


def quotient_check(det_value: int, base: int, exponent: int) -> int | None:
    """The exact quotient of ``det_value`` by ``base**exponent``, or None
    when the division is not exact.  A zero ``det_value`` gives 0, so test
    the result with ``is None``, never by truth.

    The power is built only when it can divide: a nonzero value below
    ``2**(exponent * (base.bit_length() - 1))`` in absolute value, a lower
    bound on ``base**exponent``, is not divisible.  Each argument must pass
    ``exact.exact_int``, ``base`` from 2 and ``exponent`` from 0.
    """
    exact_int(base, "base", 2)
    exact_int(exponent, "exponent", 0)
    if not exact_int(det_value, "det_value"):
        return 0
    if exponent * (base.bit_length() - 1) >= det_value.bit_length():
        return None
    q, r = divmod(det_value, base**exponent)
    return None if r else q


def _bareiss_det(rows):
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


def _leading_minors(runs, child=None):
    """Leading principal minors of the Hankel matrix ``(values[i+j])`` of
    each run by the fraction-free Chebyshev recursion.  Returns each run's
    ``(minors, steps, max_bits)``; step k makes 2n-1-2k tau entries, so a
    run of K = len(minors) - 1 steps made ``steps`` = K(2n-K) of them.

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

    so each step (:func:`_tau_step`) costs two exact divisions per entry, n^2
    entries in all.  The only divisors are the leading minors of order up to
    n-1: when one of them is 0, that run's ``minors`` stop at the last order
    reached, short of n+1.  Those minors are exact; the caller finishes the
    higher orders itself.

    A step has a second form, :func:`_packed_step`, for rows whose entries
    stay narrow.  A row x_0, x_1, .. is then the int X = sum x_i 2^(L i) of
    signed lanes of L = ``_LANE_BITS`` bits.  With T1, T2 the row tau_k and
    S2 the row tau_{k-1} shifted down by one, two and two lanes, a step is

        U = c T1 - Delta_{k+1} S2,  W = U / Delta_k = Delta_k U  (Delta_k = +-1),
        V = Delta_{k+1} (T2 + W) - a T1, cut to its j lanes,  tau_{k+1} = Delta_k V.

    Lane 0 reads as ((X & (2^L - 1)) ^ 2^(L-1)) - 2^(L-1), and is subtracted
    before a shift, which would borrow from it were it negative; adding
    2^(L-1) to each of j lanes, masking and subtracting it again cuts a row to
    j lanes.  Every tau entry, c, a and the minors are below 2^max_bits in
    absolute value, so the scalars' bit-lengths bound U's lanes before the
    step and V's once U's are read.  While both stay within L - 2 bits every
    lane reads back exactly; a run whose bound passes that, whose row is
    shorter than ``_PACK_MIN_LEN`` or whose Delta_k is not +-1 is unpacked
    once and goes on in list form.  ``max_bits`` stays exact: a mask
    checks each numerator's lanes against 2^max_bits, and only when one is
    wider does it search upward.

    The runs, of any lengths, go in lockstep.  Given ``child``, the channel
    to the forked child of :func:`_split_leading_minors` (the runs then have
    one n), this takes only the positions l <= n: per step, each run's
    tau_{k+1}(k+1) and tau_{k+1}(k+2) go out first, for the child's next
    step, and its tau_{k+1}(n+1) comes in last.  ``max_bits`` is then this
    process's, and ``steps`` still the whole run's.
    """
    # tau_k(l) for l = k..2n-k, or k..n+1 with a child (the last is the child's)
    cur = [list(values if child is None else values[: len(values) // 2 + 2]) for values in runs]
    prev = [[0] * len(t) for t in cur]  # tau_{k-1}(l) from l = k-1
    divisor = [1] * len(runs)  # Delta_k
    max_bits = [max(x.bit_length() for x in values) for values in runs]
    minors = [[t[0]] for t in cur]
    # each run's rows while they go packed (_packed_step), never with a child; till then
    # cur keeps the run's values, at least _PACK_MIN_LEN of them, for the test below
    packed = [_pack(t, bits) if child is None else None for t, bits in zip(cur, max_bits)]
    head = None if child is None else 3  # with a child, positions k+1 and k+2 go first
    live = range(len(runs))
    while live := [r for r in live if divisor[r] and len(cur[r]) > 1]:
        stepped, nxts = [], []
        for r in live:
            if packed[r]:
                step = _packed_step(*packed[r], divisor[r], minors[r][-1], max_bits[r])
                if step:
                    packed[r], minor, max_bits[r] = step
                    divisor[r] = minors[r][-1]
                    minors[r].append(minor)
                    continue
                cur[r], prev[r] = _unpack(*packed[r], divisor[r])  # the list form from here on
                packed[r] = None
            t, s = cur[r], prev[r]  # Delta_{k+1}, tau_k(k+1), tau_{k-1}(k) are t[0], t[1], s[1]
            nxt, max_bits[r] = _tau_step(zip(t[1:head], t[2:], s[2:]),
                                         divisor[r], t[0], t[1], s[1], max_bits[r])
            stepped.append(r)
            nxts.append(nxt)
        if child is not None:
            size = len(cur[live[0]])  # n+2-k, the same for every run
            if size > 4:  # the child takes a step k+1
                child.send(nxts)
            for r, nxt in zip(live, nxts):
                t, s = cur[r], prev[r]
                rest, max_bits[r] = _tau_step(zip(t[3:], t[4:], s[4:]),
                                              divisor[r], t[0], t[1], s[1], max_bits[r])
                nxt += rest
            if size > 3:  # the child took a step k
                for nxt, last in zip(nxts, child.recv()):
                    nxt.append(last)  # tau_{k+1}(n+1)
        for r, nxt in zip(stepped, nxts):
            prev[r], cur[r], divisor[r] = cur[r], nxt, cur[r][0]
            minors[r].append(nxt[0])
    return [(m, (len(m) - 1) * (len(values) - len(m)), bits)
            for m, values, bits in zip(minors, runs, max_bits)]


def _tau_step(entries, divisor, minor, a, c, max_bits):
    """One step k -> k+1 of the recursion in :func:`_leading_minors`,
    at the positions l that ``entries`` yields ``(tau_k(l), tau_k(l+1),
    tau_{k-1}(l))`` for, in that order.  ``divisor`` is Delta_k, ``minor``
    Delta_{k+1} = tau_k(k), ``a`` tau_k(k+1) and ``c`` tau_{k-1}(k).  Returns
    ``(nxt, max_bits)``: the list of tau_{k+1}(l), and ``max_bits`` raised to
    the bit-length of every numerator.

    The position l enters only through its own three entries, so the
    positions of one step can be taken in parts, in this process or in a
    forked child (:func:`_split_leading_minors`), with the same result.
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


# The width of a lane of a packed tau row (_packed_step), in bits: a byte, so
# that a row packs and unpacks by int.from_bytes and int.to_bytes.  Wider lanes
# only make each big-int operation longer: an earlier form of the step, which
# packed lane by lane, took 0.91, 1.05, 1.19, 1.45 and 1.90 ms on the parity
# run at hi = 128 with lanes of 8, 12, 16, 24 and 32 bits, against 2.9 ms in
# list form (2-vCPU x86_64 VM, CPython 3.11).
_LANE_BITS = 8
# The shortest tau row taken packed.  On the same VM a packed step took
# 4.3-5.5 us at every width from 21 to 117, a list step 0.25 us per entry plus
# ~1.5 us, and packing a run and unpacking it ~6 us.  The parity run, best of
# 151 three times, in list form against packed from this length: 1.06x at 19
# values, 0.99x at 23, 0.91x at 27, 0.55x at 55 and 0.28x at 127; the length
# 15 gained ~0.03x more from 23 values on but lost 1.11x at 15.
_PACK_MIN_LEN = 19


def _pack(values, max_bits):
    """The packed state of step 0 of a run (see :func:`_packed_step`), each
    lane a byte, or None for a run shorter than ``_PACK_MIN_LEN`` or whose
    entries leave no room in a lane."""
    if len(values) < _PACK_MIN_LEN or max_bits > _LANE_BITS - 2:
        return None
    ones = int.from_bytes(b"\1" * len(values), "little")
    return int.from_bytes(bytes(x + 128 for x in values), "little") - (ones << 7), 0, 0, ones, len(values)


def _unpack(row, low, c, ones, width, divisor):
    """A packed state (:func:`_packed_step`) as the lists ``cur`` and
    ``prev`` of :func:`_leading_minors`: each lane plus 2^7 is one byte."""
    bias = ones << 7
    return ([x - 128 for x in (row + bias).to_bytes(width, "little")],
            [divisor, c] + [x - 128 for x in (low + bias).to_bytes(width, "little")])


def _packed_step(row, low, c, ones, width, divisor, minor, max_bits):
    """Step k -> k+1 of :func:`_leading_minors` on packed rows, as that
    docstring describes it; None where it cannot be taken packed, which
    includes every ``divisor`` other than +-1.

    ``row`` packs tau_k(k+i) and ``low`` tau_{k-1}(k+1+i) in lane i, for
    i < ``width``, and ``ones`` a 1 in each of those lanes; ``c`` is
    tau_{k-1}(k), ``divisor`` Delta_k and ``minor`` Delta_{k+1}.  Returns
    the state of step k+1, its minor tau_{k+1}(k+1) and ``max_bits``.
    """
    lane = _LANE_BITS
    if (width < _PACK_MIN_LEN or divisor not in (1, -1)
            or max_bits + max(c.bit_length(), minor.bit_length()) + 1 > lane - 2):
        return None
    half, mask = 1 << lane - 1, (1 << lane) - 1
    t1 = (row - minor) >> lane  # tau_k(k+1+i)
    a = ((t1 & mask) ^ half) - half
    t2 = (t1 - a) >> lane  # tau_k(k+2+i)
    width -= 2
    ones >>= 2 * lane
    u = c * t1 - minor * low
    max_bits = _lane_bits(u, ones, max_bits)
    if max(minor.bit_length() + 1, a.bit_length()) + max_bits + 1 > lane - 2:
        return None
    bias = ones << lane - 1
    v = minor * (t2 + divisor * u) - a * t1  # U / Delta_k is Delta_k U
    v = ((v + bias) & ones * mask) - bias  # its lanes past width dropped
    max_bits = _lane_bits(v, ones, max_bits)
    q = divisor * v
    return (q, t2, a, ones, width), ((q & mask) ^ half) - half, max_bits


def _lane_bits(x, ones, bits):
    """The largest of ``bits`` and the bit-lengths of the lanes of ``x`` that
    ``ones`` covers, each below 2^(_LANE_BITS - 2) in absolute value."""
    while True:
        y = x + ((1 << bits) - 1) * ones  # its lanes, and those of y + ones, below 2^(bits+1) iff x's fit
        if not (y | y + ones) & ((1 << _LANE_BITS) - (2 << bits)) * ones:
            return bits
        bits += 1


def _split_leading_minors(runs: Sequence[Sequence[int]]) -> list[tuple[list[int], int, int]]:
    """``_leading_minors(runs)``, each run's same ``(minors, steps,
    max_bits)``, with one forked child taking part of every step of every
    run.

    Each run holds x_0..x_2n, with one n >= 2 for all (below, the child would
    have no position), and ``_fork.can_fork`` holds: :func:`hankel_minors`,
    which picks this route, checks both.  Step k -> k+1 updates the positions
    l = k+1..2n-k-1, each from tau_k(l), tau_k(l+1), tau_{k-1}(l) and four
    scalars read at the left end (see :func:`_tau_step`).  This process
    takes the positions l <= n of every run and the child those above.  Per
    step, the child needs only each run's scalars, which it keeps up from this
    process's first two new entries, and this process needs only the child's
    first new entry, tau_{k+1}(n+1).  The runs go in lockstep: per step each
    side sends the other one message, with those entries of every run still
    going, before the rest of its step.  A run that meets a zero divisor leaves
    both sides' messages at the same step.  This process runs the in-process
    driver, :func:`_leading_minors`, given the child's channel, which also
    gives each run's whole ``steps``, and the child :func:`_high_positions`,
    which sends each run's ``max_bits`` home at the end, one int per run.
    """
    from ._fork import with_child  # as in hankel_minors, loaded only on this route

    mine, theirs = with_child(lambda child: _leading_minors(runs, child),
                              lambda parent: _high_positions(runs, parent))
    return [(minors, steps, max(max_bits, child_bits))
            for (minors, steps, max_bits), child_bits in zip(mine, theirs)]


def _high_positions(runs: Sequence[Sequence[int]], parent) -> list[int]:
    """The recursion at the positions l > n of every run, in the forked child,
    where ``parent`` is its ``_fork.Channel`` to the parent process; returns
    each run's ``max_bits`` over those positions."""
    n = len(runs[0]) // 2
    cur = [list(values[n + 1 :]) for values in runs]  # tau_k(l) for l = n+1..2n-k
    prev = [[0] * (n + 1) for _ in runs]  # tau_{k-1}(l) for l = n+1..2n-k+1
    # Delta_k, Delta_{k+1} = tau_k(k), tau_k(k+1) and tau_{k-1}(k), at k = 0
    scalars = [(1, values[0], values[1], 0) for values in runs]
    max_bits = [0] * len(runs)
    live = list(range(len(runs)))
    for k in range(n - 1):
        if k:
            for r, (minor, a) in zip(live, parent.recv()):
                _, divisor, c, _ = scalars[r]  # Delta_k = tau_{k-1}(k-1), tau_{k-1}(k)
                scalars[r] = divisor, minor, a, c
        live = [r for r in live if scalars[r][0]]
        if not live:
            break
        firsts = []
        for r in live:
            first, max_bits[r] = _tau_step(zip(cur[r][:1], cur[r][1:2], prev[r][:1]),
                                           *scalars[r], max_bits[r])
            firsts += first
        parent.send(firsts)  # tau_{k+1}(n+1)
        for r, first in zip(live, firsts):
            rest, max_bits[r] = _tau_step(zip(cur[r][1:-1], cur[r][2:], prev[r][1:]),
                                          *scalars[r], max_bits[r])
            prev[r], cur[r] = cur[r], [first] + rest
    return max_bits
