"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 11 is experimental and reports without
gating; everything else is exact (tolerance zero).
"""
import random
import time

from hankelforge import _kernels, binomial_transform, prefix
from hankelforge.hankel import det_bareiss, det_dodgson, det_laplace, hankel_minors
from hankelforge.numtheory import lemma23_hypothesis_check, nu2, ones_count
from hankelforge.sequences import domb, franel
from hankelforge.verify import run_claim

from oracle_helpers import CATALOG, det_fractions, inverse_binomial_transform


def _report(number, ok, detail):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_franel_hankel_quotients():
    start = time.perf_counter()
    report = run_claim("hankel-franel", 12)
    elapsed = time.perf_counter() - start
    _report(1, report.passed and elapsed < 10,
            f"2^-n odd for r in 3..6 and 6^-n positive odd for r=3, n<=12 ({elapsed:.2f}s)")


def test_criterion_02_domb_clf_hankel_quotients():
    start = time.perf_counter()
    report = run_claim("hankel-domb-clf", 12)
    elapsed = time.perf_counter() - start
    _report(2, report.passed and elapsed < 10,
            f"12^-n D, 2^-n(n+3) P and 4^-n d(1) positive odd, n<=12 ({elapsed:.2f}s)")


def test_criterion_03_apery_hankel_quotients():
    start = time.perf_counter()
    report = run_claim("hankel-apery", 12)
    elapsed = time.perf_counter() - start
    _report(3, report.passed and elapsed < 10,
            f"10^-n b and 24^-n a are integers, n<=12 ({elapsed:.2f}s)")


def test_criterion_04_calkin_divisibility():
    ok = True
    for r in range(1, 7):
        terms = prefix(franel(r), 512).terms
        for n in range(1, 513):
            if nu2(terms[n]) < ones_count(n):
                ok = False
                break
    _report(4, ok, "2^(binary ones of n) divides f(r)_n for n<=512, r<=6")


def test_criterion_05_parity_matrix_machinery():
    ok = True
    for seq, k in ((franel(3), 1), (franel(4), 1), (franel(5), 1), (franel(6), 1), (domb(2), 2)):
        terms = prefix(seq, 128).terms
        if not all(ok for _, _, ok, _ in lemma23_hypothesis_check(terms, k, 128)):
            ok = False
        for minor in hankel_minors([[(terms[i] // (2 * k)) & 1 for i in range(2, 129)]])[0]:
            if minor not in (1, -1):
                ok = False
    _report(5, ok, "hypothesis scan to index 128 and |B_n| in {+-1} for n<=64")


def test_criterion_06_domb_mod8():
    report = run_claim("domb-mod8", n_max=256)
    _report(6, report.passed,
            "d(m)_n = 4 C(2n-1,n-1) (mod 8) with power-of-two refinement, n<=256, m<=3")


def test_criterion_07_congruence_registry():
    claims = (
        "domb-mod3",
        "domb-iterated-mod3",
        "apery-b-congruences",
        "apery-a-transform-mod24",
        "gessel-mod24",
        "barrucand-identity",
        "clf-doubling-identity",
        "gsum-mod3",
    )
    failed = [c for c in claims if not run_claim(c, n_max=200).passed]
    _report(7, not failed, f"congruence registry to index 200 ({len(claims)} claims)")


def test_criterion_08_franel_prime_congruences():
    start = time.perf_counter()
    report = run_claim("franel-prime-sums")
    elapsed = time.perf_counter() - start
    branch_entries = [e for e in report.entries if " x=" in e.index]
    ok = report.passed and elapsed < 30 and len(branch_entries) > 0
    _report(8, ok, f"three prime congruences for all primes 5..97, "
                   f"{len(branch_entries)} x^2+3y^2 branches ({elapsed:.2f}s)")


def test_criterion_09_engine_agreement():
    rng = random.Random(1234)
    ok = True
    for _ in range(500):
        order = rng.randint(1, 6)
        rows = [[rng.randint(-(10**6), 10**6) for _ in range(order)] for _ in range(order)]
        # The engines take Hankel values only; the Bareiss kernel under them
        # takes any square matrix.
        if _kernels.bareiss_det(rows)[0] != det_fractions(rows):
            ok = False
            break
    # On random values DODGSON must run the Hankel recursion, not fall back.
    for _ in range(500):
        order = rng.randint(1, 6)
        values = [rng.randint(-(10**6), 10**6) for _ in range(2 * order - 1)]
        a = det_laplace(values).value
        b = det_bareiss(values).value
        c = det_dodgson(values)
        if c.fallback or not a == b == c.value:
            ok = False
            break
    for seq in CATALOG:
        terms = prefix(seq, 24).terms
        for n in range(13):
            values = terms[: 2 * n + 1]
            a = det_laplace(values, max_order=13).value
            b = det_bareiss(values).value
            c = det_dodgson(values).value
            if not a == b == c:
                ok = False
    _report(9, ok, "Bareiss kernel = Fraction elimination on 500 random matrices; "
                   "LAPLACE = BAREISS = DODGSON on 500 random Hankel and "
                   f"{len(CATALOG)} x 13 sequence Hankel determinants")


def test_criterion_10_round_trip_and_invariance():
    ok = True
    rng = random.Random(5678)
    for length in range(1, 51):
        x = [rng.randint(-10**8, 10**8) for _ in range(length)]
        if inverse_binomial_transform(binomial_transform(x)) != x:
            ok = False
    for seq in CATALOG:
        terms = prefix(seq, 16).terms
        transformed = binomial_transform(terms)
        scaled = [t << i for i, t in enumerate(terms)]
        for n in range(9):
            base = det_bareiss(terms[: 2 * n + 1]).value
            if det_bareiss(transformed[: 2 * n + 1]).value != base:
                ok = False
            if det_bareiss(scaled[: 2 * n + 1]).value != 2 ** (n * (n + 1)) * base:
                ok = False
    _report(10, ok, "inverse-transform round trip (len<=50), Hankel invariance "
                    "and 2-power antidiagonal scaling (orders<=9)")


def test_criterion_11_positivity_probe_experimental():
    report = run_claim("apery-positivity", 12)
    assert report.experimental
    status = "all positive" if report.passed else "NEGATIVE VALUES SEEN"
    # experimental: reported, never failing the suite
    print(f"\n[criterion 11] PASS (EXPERIMENTAL, non-gating) |b-Hankel| and |a-Hankel| "
          f"for n<=12: {status}")


def test_criterion_12_performance_smoke():
    terms = prefix(franel(3), 100).terms
    start = time.perf_counter()
    result = det_bareiss(terms)
    elapsed = time.perf_counter() - start
    q6 = result.value // 6**50
    ok = elapsed < 60 and result.value % 6**50 == 0 and q6 % 2 == 1 and q6 > 0
    _report(12, ok, f"order-51 Bareiss in {elapsed:.2f}s, max_bits={result.max_bits}, "
                    f"steps={result.steps}")
