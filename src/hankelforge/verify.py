"""Claim harnesses and the claim registry.

Every divisibility, parity, congruence, and positivity statement the
package verifies is one :class:`Claim` row of :data:`REGISTRY` under a
stable claim id, and each run produces a :class:`VerificationReport` with
one status per checked index.  ``hankelforge verify --help`` and the README
list the claims.

Claims are independent and may run concurrently.  A Hankel claim hands the
prefixes of all its sequences to one ``hankel.hankel_minors`` call, which
decides whether a forked child shares the work, before it checks any minor.
Its checks are yielded in one fixed order either way, so witness order is
reproducible.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import hankel, numtheory, sequences, transforms
from .exact import decimal_str, exact_int, exact_ints
from .numtheory import is_power_of_two, is_prime, nu2
from .reports import Check, ReportEntry, VerificationReport, Witness
from .sequences import APERY_A, APERY_B, CLF, G_SUM, domb, franel, prefix

DET_N_MAX = 12
CONG_N_MAX = 200
CALKIN_N_MAX = 512
MOD8_N_MAX = 256
PARITY_N_MAX = 64
DEFAULT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# franel-prime-sums builds ~1.5 p^2 bits of terms per prime, so its time and
# memory grow as p^2.
MAX_PRIME = 10_000

Checks = Callable[[int, tuple[int, ...]], Iterable[Check]]
# one sequence of a Hankel claim and the checks of its minor of each order n
_HankelRun = tuple[sequences.SequenceId, Callable[[int, int], Iterable[Check]]]


class Claim(NamedTuple):
    """One registered claim: its default bounds and the checks it makes.

    ``checks(hi, primes)`` yields the checks for indices ``n_min..hi``.
    ``scope`` is the report's index range, formatted with ``hi``, ``hi2``
    (twice ``hi``) and ``primes``.  ``n_max`` is the default index bound, and
    None for a claim whose checks take no index bound (they get ``hi`` 0).
    ``primes`` is the default prime list of a claim that takes one, and None
    for every other claim.
    """

    claim_id: str
    description: str
    scope: str
    checks: Checks
    n_max: int | None
    n_min: int = 0
    primes: tuple[int, ...] | None = None
    experimental: bool = False

    def bounds(self, n_max: int | None = None,
               primes: Sequence[int] | None = None) -> tuple[int, tuple[int, ...]]:
        """The index bound and primes a run uses; ValueError on a bound that
        ``exact.exact_int`` refuses, primes that ``exact.exact_ints`` refuses,
        an empty range, an empty prime list, a prime the claim cannot take or a
        prime given twice.  A claim without an index bound ignores an
        ``n_max`` those rules take, as one without primes ignores such
        ``primes``: ``run_all`` gives both to every claim."""
        if n_max is not None:
            exact_int(n_max, f"the index bound of {self.claim_id}")
        if primes is not None:
            exact_ints(primes, f"the primes of {self.claim_id}")
        if self.n_max is None:
            hi = 0
        else:
            hi = self.n_max if n_max is None else n_max
            if hi < self.n_min:
                raise ValueError(f"range n={self.n_min}..{hi} is empty for {self.claim_id}")
        if self.primes is None:
            return hi, ()
        ps = self.primes if primes is None else tuple(primes)
        if not ps:
            raise ValueError(f"no primes given for {self.claim_id}")
        for i, p in enumerate(ps):
            if p > MAX_PRIME:  # before is_prime, whose trial division grows as sqrt(p)
                raise ValueError(f"prime {p} is above the limit {MAX_PRIME} for {self.claim_id}")
            if p <= 3 or not is_prime(p):
                raise ValueError(f"invalid prime {p}: need primes greater than 3")
            if p in ps[:i]:
                raise ValueError(f"prime {p} is given twice for {self.claim_id}")
        return hi, ps

    def run(self, n_max: int | None = None, primes: Sequence[int] | None = None) -> VerificationReport:
        """One entry per check, and a witness per failing one, in check order."""
        hi, ps = self.bounds(n_max, primes)
        entries, witnesses = [], []
        new = tuple.__new__  # an equal ReportEntry at half the cost of its Python-level __new__
        for label, value, ok, expected in self.checks(hi, ps):
            value_s = decimal_str(value)
            entries.append(new(ReportEntry, (label, value_s, "pass" if ok else "fail")))
            if not ok:
                witnesses.append(Witness(label, value_s, expected))
        return VerificationReport(self.claim_id, self.scope.format(hi=hi, hi2=2 * hi, primes=list(ps)),
                                  tuple(entries), tuple(witnesses), self.experimental)


# ---------------------------------------------------------------------------
# check builders


def _residues(seq_id: sequences.SequenceId,
              *congruences: tuple[int, int, Callable[[int], int], int, str]) -> Checks:
    """For each congruence ``(m, lo, expected, transformed, label)`` in turn:
    ``x_n = expected(n) (mod m)`` for ``n = lo..hi``, where x is the sequence
    after ``transformed`` binomial transforms, labelled ``label`` followed by
    n.  The prefix is built once."""
    def checks(hi, primes):
        terms = prefix(seq_id, hi).terms
        for m, lo, expected, transformed, label in congruences:
            # Only residues are read, so the difference table runs mod m
            # (iterated_transform's modulus): each row is one int of packed
            # lanes a few bits wider than m, instead of entries that grow to
            # ~n*log2(transformed+1) bits.
            values = transforms.iterated_transform(terms, transformed, m)
            for n in range(lo, hi + 1):
                want = expected(n) % m
                got = values[n]
                ok = got == want
                yield f"{label}{n}", got, ok, "" if ok else f"= {want} (mod {m})"

    return checks


def _hankel(*runs: _HankelRun) -> Checks:
    """For each run ``(seq_id, check)`` in turn, the checks ``check(n, det
    H_n)`` for ``n = 0..hi``; one ``hankel.hankel_minors`` call takes the
    minors of all the runs' prefixes."""
    def checks(hi, primes):
        dets = hankel.hankel_minors([prefix(seq_id, 2 * hi).terms for seq_id, _ in runs])
        for (_, check), minors in zip(runs, dets):
            for n, d in enumerate(minors):
                yield from check(n, d)

    return checks


def _quotient(label: str, det: int, base: int, exponent: int, odd: bool, positive: bool) -> Check:
    q = hankel.quotient_check(det, base, exponent)
    if q is not None and (q % 2 == 1 or not odd) and (q > 0 or not positive):
        return label, q, True, ""
    what = "a positive odd integer" if positive else "an odd integer" if odd else "an integer"
    return label, det if q is None else q, False, f"det/{base}^{exponent} {what}"


def _quotients(seq_id: sequences.SequenceId, label: str, base: int, odd: bool = True,
               positive: bool = True, exponent: Callable[[int], int] = lambda n: n) -> _HankelRun:
    """``det H_n / base^exponent(n)`` is an integer (odd, positive as asked),
    labelled ``label`` followed by n."""
    return seq_id, lambda n, d: [_quotient(f"{label}{n}", d, base, exponent(n), odd, positive)]


def _franel_quotients(r: int) -> _HankelRun:
    def check(n: int, d: int) -> Iterator[Check]:
        yield _quotient(f"r={r} n={n}", d, 2, n, odd=True, positive=False)
        if r == 3:
            yield _quotient(f"r=3 n={n} base=6", d, 6, n, odd=True, positive=True)

    return franel(r), check


def _positive_dets(seq_id: sequences.SequenceId) -> _HankelRun:
    return seq_id, lambda n, d: [(f"{seq_id.label()} n={n}", d, d > 0, "> 0")]


# ---------------------------------------------------------------------------
# claims with their own loops


def _calkin(hi: int, primes: tuple[int, ...]) -> Iterator[Check]:
    for r in range(1, 7):
        terms = prefix(franel(r), hi).terms
        for n in range(1, hi + 1):
            v = nu2(terms[n])
            need = n.bit_count()
            ok = v >= need
            yield f"r={r} n={n}", v, ok, "" if ok else f"nu2 >= {need}"


# (sequence, scale k) pairs whose hypotheses are checked; each case that
# meets them gets the same halved parity matrix B, so it is factored once
PARITY_CASES: tuple[tuple[sequences.SequenceId, int], ...] = (
    (franel(3), 1), (franel(4), 1), (franel(5), 1), (franel(6), 1), (domb(2), 2),
)


def _parity_matrix(hi: int, primes: tuple[int, ...]) -> Iterator[Check]:
    minors = None
    for seq_id, k in PARITY_CASES:
        name = seq_id.label()
        hypotheses = numtheory.lemma23_hypothesis_check(prefix(seq_id, 2 * hi).terms, k)
        for label, value, ok, expected in hypotheses:
            yield f"{name} {label}", value, ok, expected
        if not all(ok for _, _, ok, _ in hypotheses):
            continue  # B is defined only under the hypotheses; their witnesses are the failure
        if minors is None:
            # the hypotheses just checked force (x_i/2k) mod 2 = 1 exactly when i is a power of two
            minors = hankel.hankel_minors([[int(is_power_of_two(i)) for i in range(2, 2 * hi + 1)]])[0]
        for n in range(1, hi + 1):
            v = minors[n - 1]
            yield f"{name} |B_{n}|", v, v in (1, -1), "in {+1, -1}"


def _domb_mod8(hi: int, primes: tuple[int, ...]) -> Iterator[Check]:
    # Both depend on n alone.  They stay two computations, the 2-adic valuation
    # of C(2n-1, n-1) tracked along n and a bit test: v % 8 == want reads one
    # and (v % 8 == 0) == (not pow2) the other, so both hold only if they agree.
    parities = list(zip(numtheory.central_binom_parities(hi),
                        [is_power_of_two(n) for n in range(1, hi + 1)]))
    for m in (1, 2, 3):
        terms = prefix(domb(m), hi).terms
        for n, (central_odd, pow2) in enumerate(parities, 1):
            v = terms[n]
            want = 4 if central_odd else 0
            ok = v % 8 == want and (v % 8 == 0) == (not pow2)
            yield (f"m={m} n={n}", v % 8, ok,
                   "= 4 C(2n-1,n-1) (mod 8); 8 | d(m) iff n not a power of two")


def _barrucand(hi: int, primes: tuple[int, ...]) -> Iterator[Check]:
    transformed = transforms.binomial_transform(prefix(franel(3), hi).terms)
    g_terms = prefix(G_SUM, hi).terms
    for n in range(hi + 1):
        got, want = transformed[n], g_terms[n]
        ok = got == want
        yield f"n={n}", got, ok, "" if ok else f"= g({n}) = {decimal_str(want)}"


def _clf_doubling(hi: int, primes: tuple[int, ...]) -> Iterator[Check]:
    p_terms = prefix(CLF, hi).terms
    d1_terms = prefix(domb(1), hi).terms
    for n in range(hi + 1):
        want = (1 << n) * d1_terms[n]
        ok = p_terms[n] == want
        yield f"n={n}", p_terms[n], ok, "" if ok else f"= 2^{n} d(1)_{n} = {decimal_str(want)}"


def _repr_x2_3y2(p: int) -> tuple[int, int]:
    # p = x^2 + 3 y^2 with the sign of x normalized to x = 1 (mod 3);
    # exists exactly when p = 1 (mod 3).
    for cand in range(1, math.isqrt(p) + 1):
        rem = p - cand * cand
        y = math.isqrt(rem // 3)
        if 3 * y * y == rem:
            return (cand if cand % 3 == 1 else -cand), y
    raise ValueError(f"{p} has no x^2 + 3y^2 representation")


def _franel_primes(hi: int, primes: tuple[int, ...]) -> Iterator[Check]:
    terms = prefix(franel(3), max(primes) - 1).terms
    for p in primes:
        p2 = p * p
        # every sum below is read mod p or mod p^2, so its ~3p-bit terms are not needed
        fs = [f % p2 for f in terms[:p]]

        alt = sum(fs[k] if k % 2 == 0 else -fs[k] for k in range(p)) % p
        want = 1 % p if p % 3 == 1 else p - 1
        ok = alt == want
        yield f"p={p} alt-sum", alt, ok, "" if ok else f"= {want} (mod {p})"

        tot = 0
        for k in range(1, p):
            t = fs[k] * pow(k, -1, p2)
            tot += t if k % 2 == 0 else -t
        tot %= p2
        ok = tot == 0
        yield f"p={p} weighted-alt-sum", tot, ok, "" if ok else f"= 0 (mod {p2})"

        inv2 = pow(2, -1, p2)
        lhs = 0
        w = 1
        for k in range(p):
            lhs = (lhs + fs[k] * w) % p2
            w = w * inv2 % p2
        if p % 3 == 1:
            x, y = _repr_x2_3y2(p)
            rhs = (2 * x - p * pow(2 * x, -1, p2)) % p2
            label = f"p={p} half-weight-sum x={x} y={y}"
        else:
            c = math.comb((p + 1) // 2, (p + 1) // 6)
            rhs = 3 * p * pow(c, -1, p2) % p2
            label = f"p={p} half-weight-sum"
        ok = lhs == rhs
        yield label, lhs, ok, "" if ok else f"= {rhs} (mod {p2})"


# ---------------------------------------------------------------------------
# the registry


REGISTRY: tuple[Claim, ...] = (
    Claim("hankel-franel", "2^-n (and 6^-n for r=3) Hankel quotients of the r-th power sums",
          "r in [3, 4, 5, 6], n=0..{hi}", _hankel(*(_franel_quotients(r) for r in range(3, 7))),
          DET_N_MAX),
    Claim("hankel-domb-clf", "12^-n Domb, 2^-n(n+3) CLF and 4^-n d(1) Hankel quotients",
          "n=0..{hi}", _hankel(
              _quotients(domb(2), "D n=", 12),
              _quotients(CLF, "P n=", 2, exponent=lambda n: n * (n + 3)),
              _quotients(domb(1), "D1 n=", 4),
          ), DET_N_MAX),
    Claim("hankel-apery", "10^-n b and 24^-n a Hankel quotients are integers",
          "n=0..{hi}", _hankel(
              _quotients(APERY_B, "b n=", 10, odd=False, positive=False),
              _quotients(APERY_A, "a n=", 24, odd=False, positive=False),
          ), DET_N_MAX),
    Claim("calkin-divisibility", "2^(binary ones of n) divides the r-th power sums",
          "r=1..6, n=1..{hi}", _calkin, CALKIN_N_MAX, n_min=1),
    Claim("parity-matrix-unimodular", "halved parity matrices have determinant +-1",
          "n=1..{hi}, hypotheses to i={hi2}", _parity_matrix, PARITY_N_MAX, n_min=1),
    Claim("domb-mod8", "d(m)_n = 4 C(2n-1,n-1) (mod 8) with power-of-two refinement",
          "m=1..3, n=1..{hi}", _domb_mod8, MOD8_N_MAX, n_min=1),
    Claim("domb-mod3", "Domb numbers are congruent to 1 mod 3",
          "n=0..{hi}", _residues(domb(2), (3, 0, lambda n: 1, 0, "n=")), CONG_N_MAX),
    Claim("domb-iterated-mod3", "twice binomial-transformed Domb numbers are divisible by 3",
          "n=1..{hi}", _residues(domb(2), (3, 1, lambda n: 0, 2, "n=")), CONG_N_MAX, n_min=1),
    Claim("apery-b-congruences", "b' even, b'' divisible by 5, b_n = 3^n mod 5",
          "n<={hi}", _residues(
              APERY_B,
              (2, 1, lambda n: 0, 1, "apery-b-transform-mod2 n="),
              (5, 1, lambda n: 0, 2, "apery-b-iterated-mod5 n="),
              (5, 0, lambda n: pow(3, n, 5), 0, "apery-b-powers-mod5 n="),
          ), CONG_N_MAX, n_min=1),
    Claim("apery-a-transform-mod24", "binomial transform of a is divisible by 24 from index 3",
          "n=3..{hi}", _residues(APERY_A, (24, 3, lambda n: 0, 1, "n=")), CONG_N_MAX, n_min=3),
    Claim("gessel-mod24", "a_n is congruent to 3 - 2(-1)^n mod 24",
          "n=0..{hi}", _residues(APERY_A, (24, 0, lambda n: 1 if n % 2 == 0 else 5, 0, "n=")),
          CONG_N_MAX),
    Claim("barrucand-identity", "binomial transform of the cubic sums equals the g-sums",
          "n=0..{hi}", _barrucand, CONG_N_MAX),
    Claim("clf-doubling-identity", "p_n = 2^n d(1)_n",
          "n=0..{hi}", _clf_doubling, CONG_N_MAX),
    Claim("gsum-mod3", "g_n is divisible by 3 from index 1",
          "n=1..{hi}", _residues(G_SUM, (3, 1, lambda n: 0, 0, "n=")), CONG_N_MAX, n_min=1),
    Claim("franel-prime-sums", "three weighted-sum prime congruences for the cubic sums",
          "p in {primes}", _franel_primes, None, primes=DEFAULT_PRIMES),
    Claim("apery-positivity", "Apery Hankel determinants are positive (open conjecture)",
          "n=0..{hi}", _hankel(_positive_dets(APERY_B), _positive_dets(APERY_A)), DET_N_MAX,
          experimental=True),
)

CLAIM_IDS: tuple[str, ...] = tuple(c.claim_id for c in REGISTRY)
_BY_ID = {c.claim_id: c for c in REGISTRY}


def claim(claim_id: str) -> Claim:
    if claim_id not in CLAIM_IDS:  # a tuple: an unhashable id is refused, not a TypeError
        raise ValueError(f"unknown claim {claim_id!r}")
    return _BY_ID[claim_id]


def run_claim(claim_id: str, n_max: int | None = None, primes: Sequence[int] | None = None) -> VerificationReport:
    return claim(claim_id).run(n_max, primes)


def run_all(n_max: int | None = None, primes: Sequence[int] | None = None) -> list[VerificationReport]:
    """Run every registered claim in registry order, after checking every
    claim's bounds, so that a bound one claim refuses fails before any runs."""
    for c in REGISTRY:
        c.bounds(n_max, primes)
    return [c.run(n_max, primes) for c in REGISTRY]
