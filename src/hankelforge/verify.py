"""Claim harnesses and the claim registry.

Every divisibility, parity, congruence, and positivity statement the
package verifies is registered here under a stable claim id, and each run
produces a :class:`VerificationReport` with one status per checked index.

Registered claims
-----------------
hankel-franel              2^-n Hankel quotients of sum_k C(n,k)^r are odd
                           integers (r >= 3); for r=3 the 6^-n quotient is a
                           positive odd integer
hankel-domb-clf            12^-n Domb and 2^(-n(n+3)) CLF Hankel quotients
                           are positive odd integers; auxiliary 4^-n d(1)
                           quotient positive odd
hankel-apery               10^-n b and 24^-n a Hankel quotients are integers
calkin-divisibility        2^(binary ones of n) divides sum_k C(n,k)^r
parity-matrix-unimodular   halved parity matrices have determinant +-1,
                           hypothesis scan included
domb-mod8                  d(m)_n = 4 C(2n-1,n-1) (mod 8), with the
                           power-of-two refinement
domb-mod3                  Domb numbers are 1 mod 3
domb-iterated-mod3         twice-transformed Domb numbers are 0 mod 3
apery-b-congruences        b' even, b'' divisible by 5, b_n = 3^n mod 5
apery-a-transform-mod24    transformed a-sequence divisible by 24 from n=3
gessel-mod24               a_n = 3 - 2(-1)^n mod 24 (equivalently 1/5 mod 8
                           by parity and (-1)^n mod 3)
barrucand-identity         binomial transform of the cubic sums equals the
                           g-sum sequence
clf-doubling-identity      p_n = 2^n d(1)_n
gsum-mod3                  g_n divisible by 3 from n=1
franel-prime-sums          three prime-power congruences for weighted sums
                           of the cubic binomial sums
apery-positivity           EXPERIMENTAL: Hankel determinants of both Apery
                           families are positive (open conjecture; probed,
                           never gating)

Claims are independent and may run concurrently; each claim's own index
loop is sequential so witness order is reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import hankel, numtheory, sequences, transforms
from .numtheory import inv_mod, is_power_of_two, is_prime, nu2, ones_count
from .reports import ReportBuilder, VerificationReport
from .sequences import APERY_A, APERY_B, CLF, G_SUM, Family, domb, franel, prefix

DET_N_MAX = 12
CONG_N_MAX = 200
CALKIN_N_MAX = 512
MOD8_N_MAX = 256
PARITY_N_MAX = 64
DEFAULT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


# ---------------------------------------------------------------------------
# congruence claims


@dataclass(frozen=True)
class CongruenceClaim:
    """One residue condition over an index range, the verifier's atomic unit."""

    claim_id: str
    modulus: int
    index_range: tuple[int, int]
    description: str
    values: Callable[[int], Sequence[int]]
    expected: Callable[[int], int]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        lo, hi = self.index_range
        if hi < lo:
            raise ValueError("index range must be non-empty")


def _domb_terms(n_max: int) -> Sequence[int]:
    return prefix(domb(2), n_max).terms


def _b_terms(n_max: int) -> Sequence[int]:
    return prefix(APERY_B, n_max).terms


def _a_terms(n_max: int) -> Sequence[int]:
    return prefix(APERY_A, n_max).terms


def _residues(terms: Sequence[int], modulus: int) -> list[int]:
    # The transforms are Z-linear, so T(x) = T(x mod m) (mod m): reducing
    # first leaves every checked residue unchanged and keeps the sums small.
    return [t % modulus for t in terms]


CONGRUENCES: dict[str, CongruenceClaim] = {
    c.claim_id: c
    for c in (
        CongruenceClaim(
            "domb-mod3",
            3,
            (0, CONG_N_MAX),
            "Domb numbers are congruent to 1 mod 3",
            _domb_terms,
            lambda n: 1,
        ),
        CongruenceClaim(
            "domb-iterated-mod3",
            3,
            (1, CONG_N_MAX),
            "twice binomial-transformed Domb numbers are divisible by 3",
            lambda n_max: transforms.iterated_transform(_residues(_domb_terms(n_max), 3), 2),
            lambda n: 0,
        ),
        CongruenceClaim(
            "apery-b-transform-mod2",
            2,
            (1, CONG_N_MAX),
            "binomial transform of b is even from index 1",
            lambda n_max: transforms.binomial_transform(_residues(_b_terms(n_max), 2)),
            lambda n: 0,
        ),
        CongruenceClaim(
            "apery-b-iterated-mod5",
            5,
            (1, CONG_N_MAX),
            "twice binomial-transformed b is divisible by 5 from index 1",
            lambda n_max: transforms.iterated_transform(_residues(_b_terms(n_max), 5), 2),
            lambda n: 0,
        ),
        CongruenceClaim(
            "apery-b-powers-mod5",
            5,
            (0, CONG_N_MAX),
            "b_n is congruent to 3^n mod 5",
            _b_terms,
            lambda n: pow(3, n, 5),
        ),
        CongruenceClaim(
            "apery-a-transform-mod24",
            24,
            (3, CONG_N_MAX),
            "binomial transform of a is divisible by 24 from index 3",
            lambda n_max: transforms.binomial_transform(_residues(_a_terms(n_max), 24)),
            lambda n: 0,
        ),
        CongruenceClaim(
            "gessel-mod24",
            24,
            (0, CONG_N_MAX),
            "a_n is congruent to 3 - 2(-1)^n mod 24",
            _a_terms,
            lambda n: 1 if n % 2 == 0 else 5,
        ),
        CongruenceClaim(
            "gsum-mod3",
            3,
            (1, CONG_N_MAX),
            "g_n is divisible by 3 from index 1",
            lambda n_max: prefix(G_SUM, n_max).terms,
            lambda n: 0,
        ),
    )
}


def congruence_claim(claim_id: str) -> CongruenceClaim:
    try:
        return CONGRUENCES[claim_id]
    except KeyError:
        raise ValueError(f"unknown congruence claim {claim_id!r}") from None


def verify_congruence(claim: CongruenceClaim | str, n_max: int | None = None) -> VerificationReport:
    """Evaluate one residue condition at every index of its range.

    ``n_max`` overrides the upper end of the claim's default range.
    """
    if isinstance(claim, str):
        claim = congruence_claim(claim)
    lo, hi = claim.index_range
    if n_max is not None:
        hi = n_max
    if hi < lo:
        raise ValueError(f"range n={lo}..{hi} is empty for {claim.claim_id}")
    values = claim.values(hi)
    rep = ReportBuilder(claim.claim_id, f"n={lo}..{hi}")
    for n in range(lo, hi + 1):
        want = claim.expected(n) % claim.modulus
        got = values[n] % claim.modulus
        rep.check(f"n={n}", got, got == want, f"= {want} (mod {claim.modulus})")
    return rep.build()


# ---------------------------------------------------------------------------
# Hankel-quotient claims


def _hankel_dets(seq_id: sequences.SequenceId, n_max: int) -> list[int]:
    terms = prefix(seq_id, 2 * n_max)
    return hankel.leading_principal_minors(hankel.build_hankel(terms, n_max))


def _check_quotient(rep: ReportBuilder, label: str, det: int, base: int, exponent: int,
                    odd: bool, positive: bool, expected: str) -> None:
    q = hankel.quotient_check(det, base, exponent)
    ok = q.is_integer and (q.is_odd or not odd) and (q.is_positive or not positive)
    rep.check(label, q.quotient if q.is_integer else det, ok, expected)


def verify_theorem_1_1(n_max: int = DET_N_MAX, r_set: Sequence[int] = (3, 4, 5, 6)) -> VerificationReport:
    """2^-n Hankel quotients for the r-th power sums (odd), 6^-n for r=3
    (positive odd)."""
    rs = sorted(set(r_set))
    if not rs or any(r < 3 for r in rs):
        raise ValueError("r_set must contain integers >= 3")
    rep = ReportBuilder("hankel-franel", f"r in {rs}, n=0..{n_max}")
    for r in rs:
        dets = _hankel_dets(franel(r), n_max)
        for n in range(n_max + 1):
            _check_quotient(rep, f"r={r} n={n}", dets[n], 2, n, odd=True, positive=False,
                            expected=f"det/2^{n} an odd integer")
            if r == 3:
                _check_quotient(rep, f"r=3 n={n} base=6", dets[n], 6, n, odd=True, positive=True,
                                expected=f"det/6^{n} a positive odd integer")
    return rep.build()


def verify_theorem_1_2(n_max: int = DET_N_MAX) -> VerificationReport:
    """12^-n Domb and 2^(-n(n+3)) CLF Hankel quotients are positive odd
    integers; auxiliary 4^-n quotient for d(1) likewise."""
    rep = ReportBuilder("hankel-domb-clf", f"n=0..{n_max}")
    for n, d in enumerate(_hankel_dets(domb(2), n_max)):
        _check_quotient(rep, f"D n={n}", d, 12, n, odd=True, positive=True,
                        expected=f"det/12^{n} a positive odd integer")
    for n, d in enumerate(_hankel_dets(CLF, n_max)):
        _check_quotient(rep, f"P n={n}", d, 2, n * (n + 3), odd=True, positive=True,
                        expected=f"det/2^{n * (n + 3)} a positive odd integer")
    for n, d in enumerate(_hankel_dets(domb(1), n_max)):
        _check_quotient(rep, f"D1 n={n}", d, 4, n, odd=True, positive=True,
                        expected=f"det/4^{n} a positive odd integer")
    return rep.build()


def verify_theorem_1_3(n_max: int = DET_N_MAX) -> VerificationReport:
    """10^-n b and 24^-n a Hankel quotients are integers (oddness and sign
    deliberately not asserted)."""
    rep = ReportBuilder("hankel-apery", f"n=0..{n_max}")
    for n, d in enumerate(_hankel_dets(APERY_B, n_max)):
        _check_quotient(rep, f"b n={n}", d, 10, n, odd=False, positive=False,
                        expected=f"det/10^{n} an integer")
    for n, d in enumerate(_hankel_dets(APERY_A, n_max)):
        _check_quotient(rep, f"a n={n}", d, 24, n, odd=False, positive=False,
                        expected=f"det/24^{n} an integer")
    return rep.build()


def probe_positivity_conjecture(family: Family, n_max: int = DET_N_MAX) -> VerificationReport:
    """Sign probe of the Apery Hankel determinants.  EXPERIMENTAL: the
    positivity is an open conjecture, so this report never gates anything."""
    if family not in (Family.APERY_B, Family.APERY_A):
        raise ValueError("positivity probe covers APERY_B and APERY_A only")
    seq_id = APERY_B if family is Family.APERY_B else APERY_A
    rep = ReportBuilder("apery-positivity", f"{family.value}, n=0..{n_max}", experimental=True)
    for n, d in enumerate(_hankel_dets(seq_id, n_max)):
        rep.check(f"{family.value} n={n}", d, d > 0, "> 0")
    return rep.build()


# ---------------------------------------------------------------------------
# prime congruences for the cubic sums


def _repr_x2_3y2(p: int) -> tuple[int, int]:
    # p = x^2 + 3 y^2 with the sign of x normalized to x = 1 (mod 3);
    # exists exactly when p = 1 (mod 3).
    for cand in range(1, math.isqrt(p) + 1):
        rem = p - cand * cand
        if rem % 3:
            continue
        y = math.isqrt(rem // 3)
        if 3 * y * y == rem:
            return (cand if cand % 3 == 1 else -cand), y
    raise ValueError(f"{p} has no x^2 + 3y^2 representation")


def _franel_prime_checks(p: int) -> list[tuple[str, int, bool, str]]:
    fs = prefix(franel(3), p - 1).terms
    p2 = p * p
    checks = []

    alt = sum(fs[k] if k % 2 == 0 else -fs[k] for k in range(p)) % p
    want = 1 % p if p % 3 == 1 else p - 1
    checks.append((f"p={p} alt-sum", alt, alt == want, f"= {want} (mod {p})"))

    tot = 0
    for k in range(1, p):
        t = fs[k] * inv_mod(k, p2)
        tot += t if k % 2 == 0 else -t
    tot %= p2
    checks.append((f"p={p} weighted-alt-sum", tot, tot == 0, f"= 0 (mod {p2})"))

    inv2 = inv_mod(2, p2)
    lhs = 0
    w = 1
    for k in range(p):
        lhs = (lhs + fs[k] * w) % p2
        w = w * inv2 % p2
    if p % 3 == 1:
        x, y = _repr_x2_3y2(p)
        rhs = (2 * x - p * inv_mod(2 * x, p2)) % p2
        label = f"p={p} half-weight-sum x={x} y={y}"
    else:
        c = math.comb((p + 1) // 2, (p + 1) // 6)
        rhs = 3 * p * inv_mod(c, p2) % p2
        label = f"p={p} half-weight-sum"
    checks.append((label, lhs, lhs == rhs, f"= {rhs} (mod {p2})"))
    return checks


def verify_franel_prime_congruences(p: int) -> VerificationReport:
    """The three weighted-sum congruences for one prime p > 3."""
    if p <= 3 or not is_prime(p):
        raise ValueError("p must be a prime greater than 3")
    rep = ReportBuilder("franel-prime-sums", f"p={p}")
    for label, value, ok, expected in _franel_prime_checks(p):
        rep.check(label, value, ok, expected)
    return rep.build()


# ---------------------------------------------------------------------------
# registry runners


def _run_theorem_1_1(n_max, primes):
    return verify_theorem_1_1(DET_N_MAX if n_max is None else n_max)


def _run_theorem_1_2(n_max, primes):
    return verify_theorem_1_2(DET_N_MAX if n_max is None else n_max)


def _run_theorem_1_3(n_max, primes):
    return verify_theorem_1_3(DET_N_MAX if n_max is None else n_max)


def _run_calkin(n_max, primes):
    hi = CALKIN_N_MAX if n_max is None else n_max
    if hi < 1:
        raise ValueError(f"range n=1..{hi} is empty for calkin-divisibility")
    rep = ReportBuilder("calkin-divisibility", f"r=1..6, n=1..{hi}")
    for r in range(1, 7):
        terms = prefix(franel(r), hi).terms
        for n in range(1, hi + 1):
            v = nu2(terms[n])
            need = ones_count(n)
            rep.check(f"r={r} n={n}", v, v >= need, f"nu2 >= {need}")
    return rep.build()


# (sequence, scale k) pairs whose halved parity matrices are checked
PARITY_CASES: tuple[tuple[sequences.SequenceId, int], ...] = (
    (franel(3), 1), (franel(4), 1), (franel(5), 1), (franel(6), 1), (domb(2), 2),
)


def _run_parity_matrix(n_max, primes):
    b_max = PARITY_N_MAX if n_max is None else n_max
    rep = ReportBuilder("parity-matrix-unimodular", f"n=1..{b_max}, hypotheses to i={2 * b_max}")
    for seq_id, k in PARITY_CASES:
        terms = prefix(seq_id, 2 * b_max).terms
        hypotheses = numtheory.lemma23_hypothesis_check(terms, k, 2 * b_max)
        rep.merge(hypotheses, prefix=f"{seq_id.label()} ")
        if not hypotheses.passed:
            continue  # B is defined only under the hypotheses; their witnesses are the failure
        matrix = numtheory.parity_matrix_B(terms, k, b_max)
        minors = hankel.leading_principal_minors(matrix)
        for n in range(1, b_max + 1):
            v = minors[n - 1]
            rep.check(f"{seq_id.label()} |B_{n}|", v, v in (1, -1), "in {+1, -1}")
    return rep.build()


def _run_domb_mod8(n_max, primes):
    hi = MOD8_N_MAX if n_max is None else n_max
    if hi < 1:
        raise ValueError(f"range n=1..{hi} is empty for domb-mod8")
    rep = ReportBuilder("domb-mod8", f"m=1..3, n=1..{hi}")
    for m in (1, 2, 3):
        terms = prefix(domb(m), hi).terms
        for n in range(1, hi + 1):
            v = terms[n]
            central_odd = numtheory.central_binom_parity(n)
            pow2 = is_power_of_two(n)
            want = 4 if central_odd else 0
            ok = (
                v % 8 == want
                and v % 4 == 0
                and (v % 8 == 0) == (not pow2)
                and central_odd == pow2
            )
            rep.check(
                f"m={m} n={n}", v % 8, ok,
                "= 4 C(2n-1,n-1) (mod 8); 8 | d(m) iff n not a power of two",
            )
    return rep.build()


def _run_barrucand(n_max, primes):
    hi = CONG_N_MAX if n_max is None else n_max
    transformed = transforms.binomial_transform(prefix(franel(3), hi).terms)
    g_terms = prefix(G_SUM, hi).terms
    rep = ReportBuilder("barrucand-identity", f"n=0..{hi}")
    for n in range(hi + 1):
        rep.check(f"n={n}", transformed[n], transformed[n] == g_terms[n], f"= g({n}) = {g_terms[n]}")
    return rep.build()


def _run_clf_doubling(n_max, primes):
    hi = CONG_N_MAX if n_max is None else n_max
    p_terms = prefix(CLF, hi).terms
    d1_terms = prefix(domb(1), hi).terms
    rep = ReportBuilder("clf-doubling-identity", f"n=0..{hi}")
    for n in range(hi + 1):
        want = (1 << n) * d1_terms[n]
        rep.check(f"n={n}", p_terms[n], p_terms[n] == want, f"= 2^{n} d(1)_{n} = {want}")
    return rep.build()


def _run_congruence(claim_id):
    def run(n_max, primes):
        return verify_congruence(claim_id, n_max)

    return run


def _run_apery_b_group(n_max, primes):
    rep = ReportBuilder("apery-b-congruences", f"n<={CONG_N_MAX if n_max is None else n_max}")
    for cid in ("apery-b-transform-mod2", "apery-b-iterated-mod5", "apery-b-powers-mod5"):
        rep.merge(verify_congruence(cid, n_max), prefix=f"{cid} ")
    return rep.build()


def _run_franel_primes(n_max, primes):
    ps = DEFAULT_PRIMES if primes is None else tuple(primes)
    for p in ps:
        if p <= 3 or not is_prime(p):
            raise ValueError(f"invalid prime {p}: need primes greater than 3")
    rep = ReportBuilder("franel-prime-sums", f"p in {list(ps)}")
    for p in ps:
        for label, value, ok, expected in _franel_prime_checks(p):
            rep.check(label, value, ok, expected)
    return rep.build()


def _run_positivity(n_max, primes):
    hi = DET_N_MAX if n_max is None else n_max
    rep = ReportBuilder("apery-positivity", f"n=0..{hi}", experimental=True)
    rep.merge(probe_positivity_conjecture(Family.APERY_B, hi))
    rep.merge(probe_positivity_conjecture(Family.APERY_A, hi))
    return rep.build()


@dataclass(frozen=True)
class Claim:
    claim_id: str
    kind: str
    description: str
    runner: Callable[[int | None, Sequence[int] | None], VerificationReport]
    experimental: bool = False

    def run(self, n_max: int | None = None, primes: Sequence[int] | None = None) -> VerificationReport:
        return self.runner(n_max, primes)


REGISTRY: tuple[Claim, ...] = (
    Claim("hankel-franel", "hankel", "2^-n (and 6^-n for r=3) Hankel quotients of the r-th power sums", _run_theorem_1_1),
    Claim("hankel-domb-clf", "hankel", "12^-n Domb, 2^-n(n+3) CLF and 4^-n d(1) Hankel quotients", _run_theorem_1_2),
    Claim("hankel-apery", "hankel", "10^-n b and 24^-n a Hankel quotients are integers", _run_theorem_1_3),
    Claim("calkin-divisibility", "divisibility", "2^(binary ones of n) divides the r-th power sums", _run_calkin),
    Claim("parity-matrix-unimodular", "machinery", "halved parity matrices have determinant +-1", _run_parity_matrix),
    Claim("domb-mod8", "congruence", "d(m)_n = 4 C(2n-1,n-1) (mod 8) with power-of-two refinement", _run_domb_mod8),
    Claim("domb-mod3", "congruence", CONGRUENCES["domb-mod3"].description, _run_congruence("domb-mod3")),
    Claim("domb-iterated-mod3", "congruence", CONGRUENCES["domb-iterated-mod3"].description, _run_congruence("domb-iterated-mod3")),
    Claim("apery-b-congruences", "congruence", "b' even, b'' divisible by 5, b_n = 3^n mod 5", _run_apery_b_group),
    Claim("apery-a-transform-mod24", "congruence", CONGRUENCES["apery-a-transform-mod24"].description, _run_congruence("apery-a-transform-mod24")),
    Claim("gessel-mod24", "congruence", CONGRUENCES["gessel-mod24"].description, _run_congruence("gessel-mod24")),
    Claim("barrucand-identity", "identity", "binomial transform of the cubic sums equals the g-sums", _run_barrucand),
    Claim("clf-doubling-identity", "identity", "p_n = 2^n d(1)_n", _run_clf_doubling),
    Claim("gsum-mod3", "congruence", CONGRUENCES["gsum-mod3"].description, _run_congruence("gsum-mod3")),
    Claim("franel-prime-sums", "primes", "three weighted-sum prime congruences for the cubic sums", _run_franel_primes),
    Claim("apery-positivity", "experimental", "Apery Hankel determinants are positive (open conjecture)", _run_positivity, experimental=True),
)

CLAIM_IDS: tuple[str, ...] = tuple(c.claim_id for c in REGISTRY)
_BY_ID = {c.claim_id: c for c in REGISTRY}


def claim(claim_id: str) -> Claim:
    try:
        return _BY_ID[claim_id]
    except KeyError:
        raise ValueError(f"unknown claim {claim_id!r}") from None


def run_claim(claim_id: str, n_max: int | None = None, primes: Sequence[int] | None = None) -> VerificationReport:
    return claim(claim_id).run(n_max, primes)


def run_all(n_max: int | None = None, primes: Sequence[int] | None = None) -> list[VerificationReport]:
    """Run every registered claim in registry order."""
    return [c.run(n_max, primes) for c in REGISTRY]
