import errno
import hashlib
import json
import math
import os
import pickle
import random
import re
import signal
import threading
import time

import pytest

from hankelforge import InexactDivisionError, _fork, cli, hankel, numtheory, sequences, transforms, verify
from hankelforge.exact import decimal_str
from hankelforge.reports import VerificationReport
from hankelforge.sequences import APERY_A, APERY_B, CLF, G_SUM, domb, franel
from hankelforge.verify import Claim, run_all, run_claim

EXPECTED_CLAIM_IDS = (
    "hankel-franel",
    "hankel-domb-clf",
    "hankel-apery",
    "calkin-divisibility",
    "parity-matrix-unimodular",
    "domb-mod8",
    "domb-mod3",
    "domb-iterated-mod3",
    "apery-b-congruences",
    "apery-a-transform-mod24",
    "gessel-mod24",
    "barrucand-identity",
    "clf-doubling-identity",
    "gsum-mod3",
    "franel-prime-sums",
    "apery-positivity",
)


def test_registry_completeness():
    assert verify.CLAIM_IDS == EXPECTED_CLAIM_IDS


def test_registry_experimental_flags():
    for c in verify.REGISTRY:
        assert c.experimental == (c.claim_id == "apery-positivity")
    # Built from its five required fields, a claim takes the defaults.
    c = Claim("c", "a claim", "n=0..{hi}", lambda hi, primes: (), 3)
    assert c.n_min == 0 and c.primes is None and c.experimental is False


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_claim("no-such-claim")


def test_theorem_1_1_quotients():
    report = run_claim("hankel-franel", 2)
    assert report.passed
    assert report.index_range == "r in [3, 4, 5, 6], n=0..2"
    by_index = {e.index: e.value for e in report.entries}
    assert by_index["r=3 n=1 base=6"] == "1"
    assert by_index["r=3 n=2 base=6"] == "5"
    assert by_index["r=4 n=1"] == "7"


def test_theorem_1_2_quotients():
    report = run_claim("hankel-domb-clf", 2)
    assert report.passed
    by_index = {e.index: e.value for e in report.entries}
    assert by_index["D n=1"] == "1"  # (28 - 16) / 12
    assert by_index["P n=1"] == "1"  # (80 - 64) / 2^4
    assert by_index["D1 n=1"] == "1"  # (20 - 16) / 4


def test_theorem_1_3_integrality_only():
    report = run_claim("hankel-apery", 2)
    assert report.passed
    by_index = {e.index: e.value for e in report.entries}
    assert by_index["b n=1"] == "1"  # 10 / 10
    assert by_index["a n=1"] == "2"  # 48 / 24: integer but even, still passing


def test_positivity_probe_is_experimental():
    report = run_claim("apery-positivity", 3)
    assert report.experimental
    assert report.passed
    assert [e.index for e in report.entries][::4] == ["apery-b n=0", "apery-a n=0"]


CONGRUENCE_CLAIM_IDS = (
    "domb-mod3",
    "domb-iterated-mod3",
    "apery-b-congruences",
    "apery-a-transform-mod24",
    "gessel-mod24",
    "gsum-mod3",
)


def test_congruence_claims_pass():
    for claim_id in CONGRUENCE_CLAIM_IDS:
        assert run_claim(claim_id, 60).passed


def test_congruence_entry_count_matches_range():
    report = run_claim("domb-mod3", 50)
    assert len(report.entries) == 51
    report = run_claim("apery-a-transform-mod24", 50)
    assert len(report.entries) == 48  # starts at n=3
    report = run_claim("apery-b-congruences", 50)
    assert len(report.entries) == 50 + 50 + 51
    assert report.entries[0].index == "apery-b-transform-mod2 n=1"


def test_congruence_empty_range_rejected():
    with pytest.raises(ValueError, match="range n=3..2 is empty for apery-a-transform-mod24"):
        run_claim("apery-a-transform-mod24", 2)


@pytest.mark.parametrize("claim_id", verify.CLAIM_IDS)
def test_claim_at_n_max_zero_is_rejected_or_checks_something(claim_id):
    try:
        report = run_claim(claim_id, n_max=0)
    except ValueError:
        return
    assert report.entries


def test_empty_report_does_not_pass():
    assert not VerificationReport("empty", "n=1..0", (), ()).passed


def test_failing_claim_produces_witnesses():
    wrong = Claim(
        "wrong-on-purpose",
        "deliberately false residues",
        "n=0..{hi}",
        lambda hi, primes: ((f"n={n}", n % 3, n % 3 == 1, "= 1 (mod 3)") for n in range(hi + 1)),
        n_max=10,
    )
    report = wrong.run()
    assert report.index_range == "n=0..10"
    assert not report.passed
    passes, fails = report.totals()
    assert passes + fails == 11
    assert len(report.witnesses) == fails
    assert report.witnesses[0].index == "n=0"


def test_franel_prime_values():
    report = run_claim("franel-prime-sums", primes=(5,))
    assert report.passed
    assert report.index_range == "p in [5]"
    values = {e.index: e.value for e in report.entries}
    assert values["p=5 alt-sum"] == "4"  # 299 = -1 (mod 5)
    assert values["p=5 half-weight-sum"] == "5"  # both sides 5 (mod 25)

    report = run_claim("franel-prime-sums", primes=(7,))
    assert report.passed
    labels = [e.index for e in report.entries]
    assert "p=7 half-weight-sum x=-2 y=1" in labels
    values = {e.index: e.value for e in report.entries}
    assert values["p=7 half-weight-sum x=-2 y=1"] == "10"  # both sides 10 (mod 49)


def test_franel_prime_validation():
    for bad in (3, 4, 9, -5):
        with pytest.raises(ValueError, match=f"invalid prime {bad}"):
            run_claim("franel-prime-sums", primes=(5, bad))
    # a claim that checked nothing must not read as refuted either
    for empty in ((), []):
        with pytest.raises(ValueError, match="no primes given for franel-prime-sums"):
            run_claim("franel-prime-sums", primes=empty)


def test_bounds_and_primes_must_be_integers():
    # is_prime(5.5) holds by trial division, and a float reached prefix
    # before bounds refused it.
    for prime in (5.5, 7.0):
        with pytest.raises(ValueError, match="the primes of franel-prime-sums must be exact integers"):
            run_claim("franel-prime-sums", primes=[prime])
    with pytest.raises(ValueError, match="the index bound of domb-mod3 must be an integer"):
        run_claim("domb-mod3", n_max=2.5)
    # a bool is an int, but would read "n=0..True" in the report
    with pytest.raises(ValueError, match="the index bound of domb-mod3 must be an integer"):
        run_claim("domb-mod3", n_max=True)


def test_primes_a_claim_ignores_are_still_checked():
    # This ran and passed: the claim ignored the primes it does not take, unchecked.
    with pytest.raises(ValueError, match="^the primes of domb-mod3 must be a list or tuple$"):
        run_claim("domb-mod3", primes=1.5)
    # run_all gives the primes to every claim, so well-formed ones are still
    # ignored, even 4, which is no prime.
    assert run_claim("domb-mod3", 5, [4]) == run_claim("domb-mod3", 5)


def test_an_index_bound_a_claim_ignores_is_still_checked():
    # As with primes: franel-prime-sums takes no index bound, and ran.
    with pytest.raises(ValueError, match="^the index bound of franel-prime-sums must be an integer$"):
        run_claim("franel-prime-sums", n_max=2.5)
    assert run_claim("franel-prime-sums", -1, (5,)) == run_claim("franel-prime-sums", primes=(5,))


def test_run_all_checks_every_bound_before_it_runs_a_claim(monkeypatch):
    # Only franel-prime-sums, the 15th claim, refuses the prime 4: the 14
    # before it ran first.
    ran = []

    def checks(hi, primes):
        ran.append(hi)
        return iter(())

    monkeypatch.setattr(verify, "REGISTRY", tuple(c._replace(checks=checks) for c in verify.REGISTRY))
    with pytest.raises(ValueError, match="invalid prime 4"):
        run_all(primes=[4])
    assert ran == []
    run_all(4, [5])
    assert len(ran) == len(verify.REGISTRY)


def test_primes_must_be_a_list_or_tuple():
    # 5 raised TypeError from tuple(), and an iterator or a dict of primes ran
    for primes in (5, iter([5]), {5: 0}):
        with pytest.raises(ValueError, match="^the primes of franel-prime-sums must be a list or tuple$"):
            run_claim("franel-prime-sums", primes=primes)


def test_franel_primes_given_twice_are_refused():
    c = verify.claim("franel-prime-sums")
    for primes in ((5, 5), (7, 5, 11, 5)):
        with pytest.raises(ValueError, match="prime 5 is given twice for franel-prime-sums"):
            c.bounds(primes=primes)
    assert c.bounds(primes=(7, 5)) == (0, (7, 5))


def test_franel_primes_are_capped():
    c = verify.claim("franel-prime-sums")
    assert verify.MAX_PRIME == 10_000
    assert c.bounds(primes=(9973,)) == (0, (9973,))  # the largest prime below the cap
    for big in (10007, 1000003):
        with pytest.raises(ValueError, match=f"prime {big} is above the limit 10000"):
            c.bounds(primes=(5, big))
        with pytest.raises(ValueError, match="above the limit"):
            run_claim("franel-prime-sums", primes=(big,))


def test_franel_primes_take_no_index_bound():
    c = verify.claim("franel-prime-sums")
    assert c.n_max is None
    assert c.bounds() == c.bounds(50) == (0, verify.DEFAULT_PRIMES)
    assert run_claim("franel-prime-sums", 50, (5,)) == run_claim("franel-prime-sums", primes=(5,))


def test_run_all_small_scope():
    reports = run_all(n_max=4, primes=(5, 7))
    assert [r.claim_id for r in reports] == list(EXPECTED_CLAIM_IDS)
    for r in reports:
        assert r.passed, r.claim_id


def test_reports_are_deterministic():
    a = run_claim("domb-mod8", n_max=16)
    b = run_claim("domb-mod8", n_max=16)
    assert a == b


def test_report_invariant_witnesses_iff_fail():
    for report in run_all(n_max=4, primes=(5,)):
        fails = [e for e in report.entries if e.status == "fail"]
        assert bool(fails) == bool(report.witnesses)
        assert report.passed == (not report.witnesses)


def test_parity_hypothesis_failure_is_a_witness(monkeypatch):
    # b_1 = 3 is odd, so 2 does not divide it and B cannot be formed.
    monkeypatch.setattr(verify, "PARITY_CASES", ((APERY_B, 1), (franel(3), 1)))
    report = run_claim("parity-matrix-unimodular", 4)
    assert not report.passed
    assert report.witnesses[0].index == "apery-b i=1"
    assert not any(e.index.startswith("apery-b |B_") for e in report.entries)
    # the qualifying sequence after it is still checked in full
    assert [e.status for e in report.entries if e.index.startswith("franel[r=3] |B_")] == ["pass"] * 4


def test_parity_claim_takes_the_minors_once(monkeypatch):
    # Every case that meets the hypotheses has the same B, so one
    # hankel_minors call serves them all, and none is made if no case does.
    calls = []
    real = hankel.hankel_minors

    def counted(runs):
        calls.append(runs)
        return real(runs)

    monkeypatch.setattr(hankel, "hankel_minors", counted)
    assert run_claim("parity-matrix-unimodular", 64).passed
    assert len(calls) == 1
    monkeypatch.setattr(verify, "PARITY_CASES", ((APERY_B, 1),))
    assert not run_claim("parity-matrix-unimodular", 64).passed
    assert len(calls) == 1


_HYPOTHESES = "2k | x_i and (4k | x_i iff i not a power of two), k=1"


def test_failing_identity_and_parity_witness_text(monkeypatch):
    # Wrong operands make the two identity claims fail, and b_1 = 3 breaks
    # the parity hypotheses; each witness must keep its expected text.
    monkeypatch.setattr(verify, "G_SUM", franel(3))
    monkeypatch.setattr(verify, "CLF", domb(1))
    monkeypatch.setattr(verify, "PARITY_CASES", ((APERY_B, 1),))
    reports = json.loads(cli.emit_reports(run_all(3, (5,)), "json"))
    witnesses = {r["claim_id"]: r["witnesses"] for r in reports if not r["passed"]}
    assert witnesses == {
        "parity-matrix-unimodular": [
            {"n": f"apery-b i={i}", "observed": b, "expected": _HYPOTHESES}
            for i, b in enumerate(("3", "19", "147", "1251", "11253", "104959"), 1)
        ],
        "barrucand-identity": [
            {"n": "n=1", "observed": "3", "expected": "= g(1) = 2"},
            {"n": "n=2", "observed": "15", "expected": "= g(2) = 10"},
            {"n": "n=3", "observed": "93", "expected": "= g(3) = 56"},
        ],
        "clf-doubling-identity": [
            {"n": "n=1", "observed": "4", "expected": "= 2^1 d(1)_1 = 8"},
            {"n": "n=2", "observed": "20", "expected": "= 2^2 d(1)_2 = 80"},
            {"n": "n=3", "observed": "112", "expected": "= 2^3 d(1)_3 = 896"},
        ],
    }


def test_report_values_render_above_str_digit_limit():
    big = 10**5000
    report = Claim("big", "values above the digit limit", "n=0..{hi}",
                   lambda hi, primes: [("n=0", big + 7, True, ""), ("n=1", -big, False, "> 0")],
                   n_max=1).run()
    assert report.entries[0].value == "1" + "0" * 4999 + "7"
    assert report.witnesses[0].observed == "-1" + "0" * 5000
    assert decimal_str(12345) == "12345"
    assert decimal_str(-(10**601) + 1) == "-" + "9" * 601


def _prefix_calls(monkeypatch):
    calls = []

    def counted(seq, n_max):
        calls.append((seq, n_max))
        return sequences.prefix(seq, n_max)

    monkeypatch.setattr(verify, "prefix", counted)
    return calls


def test_apery_b_congruences_build_one_prefix(monkeypatch):
    calls = _prefix_calls(monkeypatch)
    assert run_claim("apery-b-congruences", 50).passed
    assert calls == [(APERY_B, 50)]


def test_franel_prime_sums_build_one_prefix(monkeypatch):
    calls = _prefix_calls(monkeypatch)
    assert run_claim("franel-prime-sums").passed
    assert calls == [(franel(3), max(verify.DEFAULT_PRIMES) - 1)]


def test_prefix_matches_summation_at_the_last_index_each_default_claim_reads(monkeypatch):
    # Each claim reads terms from the recurrences; tie each term it reads last
    # to the summation.  CLF's recurrence is d(1)'s rescaled by 2^n, so
    # clf-doubling-identity's own comparison of the two cannot do it at n = 200.
    calls = _prefix_calls(monkeypatch)
    pairs = set()
    for claim in verify.REGISTRY:
        calls.clear()
        claim.run()
        last = {}
        for seq, n in calls:
            last[seq] = max(n, last.get(seq, 0))
        pairs.update(last.items())
    assert (CLF, 200) in pairs
    for seq, n in pairs:
        assert sequences.prefix(seq, n).terms[n] == sequences.term(seq, n), (seq.label(), n)


# The sequence sets whose minors each Hankel claim computes together.
HANKEL_SETS = {
    "hankel-franel": [franel(r) for r in range(3, 7)],
    "hankel-domb-clf": [domb(2), CLF, domb(1)],
    "hankel-apery": [APERY_B, APERY_A],
    "apery-positivity": [APERY_B, APERY_A],
}


def _take(route: str, monkeypatch):
    """Send the runs of every ``hankel.hankel_minors`` call down one route:
    "forked" divides them all by position with one forked child, and "here"
    keeps them in the process."""
    monkeypatch.setattr(hankel, "_FORK_MIN_COST", 0 if route == "forked" else 10**30)


def _runs(claim_id: str, n_max: int) -> list[tuple[int, ...]]:
    """The prefixes whose minors a Hankel claim takes at ``n_max``."""
    return [sequences.prefix(s, 2 * n_max).terms for s in HANKEL_SETS[claim_id]]


@pytest.fixture
def forks(monkeypatch):
    """Force the forked route on (two usable CPUs, no break-even; ``_take``
    changes the route) and count the forks made; a child left unreaped fails
    the test (conftest's alarm fails one that waits on its child)."""
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    _take("forked", monkeypatch)
    made = []
    real_fork = os.fork

    def fork():
        made.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    yield made
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("claim_id", sorted(HANKEL_SETS))
def test_forked_minors_match_in_process(forks, monkeypatch, claim_id):
    runs = _runs(claim_id, 30)
    _take("here", monkeypatch)
    want = hankel.hankel_minors(runs)
    assert len(forks) == 0
    _take("forked", monkeypatch)
    assert hankel.hankel_minors(runs) == want
    assert len(forks) == 1
    forked = run_claim(claim_id, 30)
    assert len(forks) == 2
    _take("here", monkeypatch)
    assert forked == run_claim(claim_id, 30)
    assert len(forks) == 2


def _catalan(count: int) -> list[int]:
    return [math.comb(2 * i, i) // (i + 1) for i in range(count)]


# Runs whose every leading minor has a closed form (Krattenthaler, "Advanced
# Determinant Calculus", 1999; Aigner, JCTA 87, 1999): (the runs, made when a
# test asks, and the order-s minor for s = 1, 2, ...).
CLOSED_FORMS = {
    # C_i and C_{i+1} at order 301: every minor is 1
    "catalan": (lambda: [_catalan(601), _catalan(602)[1:]], lambda s: 1),
    # C(2i, i) at order 151: the order-s minor is 2^(s-1)
    "central": (lambda: [sequences.prefix(sequences.CENTRAL_BINOM, 300).terms], lambda s: 2 ** (s - 1)),
    # 2^i = f(1) at order 61 has rank 1: the recursion stops at the zero
    # order-2 minor, and the Bareiss finishing loop gives every higher one
    "powers-of-two": (lambda: [sequences.prefix(franel(1), 120).terms], lambda s: int(s == 1)),
    # i! at order 41: the order-s minor is prod_{j<s} (j!)^2
    "factorials": (lambda: [[math.factorial(i) for i in range(81)]],
                   lambda s: math.prod(math.factorial(j) ** 2 for j in range(s))),
}


@pytest.mark.parametrize("route", ("forked", "here"))
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_minors_match_closed_forms(forks, monkeypatch, name, route):
    make_runs, minor = CLOSED_FORMS[name]
    runs = make_runs()
    _take(route, monkeypatch)
    want = [minor(s) for s in range(1, len(runs[0]) // 2 + 2)]
    assert hankel.hankel_minors(runs) == [want] * len(runs)
    assert len(forks) == (route == "forked")


@pytest.mark.parametrize("route", ("forked", "here"))
def test_scaling_multiplies_each_minor(forks, monkeypatch, route):
    # x_i -> 3^i x_i turns H into D H D for D = diag(3^i), so the order-s
    # minor gains the factor 3^(s(s-1)); on f(3) at order 41.
    values = sequences.prefix(franel(3), 80).terms
    _take(route, monkeypatch)
    minors, scaled = hankel.hankel_minors([values, [3**i * x for i, x in enumerate(values)]])
    assert scaled == [3 ** (s * (s - 1)) * d for s, d in enumerate(minors, 1)]
    assert len(forks) == (route == "forked")


def test_binomial_transform_keeps_every_minor(forks):
    # sum_k C(i, k) x_k has the Hankel minors of x (Layman, J. Integer
    # Sequences 4, 2001), on each Hankel claim sequence at order 51.  Both
    # calls are forced to fork, whatever the machine's CPU count: in the
    # process the pair would take about twice as long.
    seqs = sorted({seq for seqs in HANKEL_SETS.values() for seq in seqs}, key=lambda s: s.label())
    runs = [sequences.prefix(seq, 100).terms for seq in seqs]
    assert hankel.hankel_minors(runs) == hankel.hankel_minors(list(map(transforms.binomial_transform, runs)))
    assert len(forks) == 2


@pytest.mark.parametrize("exc", [ValueError("bad values 7"),
                                 InexactDivisionError("31 is not divisible by 4")])
def test_child_exception_is_raised_again(forks, monkeypatch, exc):
    parent, real_step = os.getpid(), hankel._tau_step

    def step(*args):
        if os.getpid() != parent:
            raise exc
        return real_step(*args)

    monkeypatch.setattr(hankel, "_tau_step", step)
    with pytest.raises(type(exc)) as raised:
        hankel.hankel_minors(_runs("hankel-franel", 30))
    assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    assert len(forks) == 1


def test_parent_failure_with_a_large_child_payload_does_not_hang(forks, monkeypatch):
    # The parent fails at once.  The child's first message, two entries of
    # about 300 KB, is more than a pipe holds, so the child waits in it until
    # read, and after it the child would not end for a minute: either way
    # only a kill lets the parent reap it before the test's alarm.
    parent, real_step, calls = os.getpid(), hankel._tau_step, []

    def step(*args):
        if os.getpid() == parent:
            raise ValueError("parent side failed")
        calls.append(None)
        if len(calls) == 3:  # the child's first call after its first message
            time.sleep(60)
        return real_step(*args)

    monkeypatch.setattr(hankel, "_tau_step", step)  # both sides
    with pytest.raises(ValueError, match="parent side failed"):
        hankel._split_leading_minors([_unit_minor_moments(1 << 600_000, 9)] * 2)
    assert len(forks) == 1


def test_can_fork_needs_fork_a_second_cpu_and_no_other_thread(monkeypatch):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    assert _fork.can_fork()
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
    assert not _fork.can_fork()
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    # a fork copies only the calling thread, and the locks the others hold
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert not _fork.can_fork()
    finally:
        stop.set()
        other.join(10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert not _fork.can_fork()


def test_usable_cpus_without_affinity(monkeypatch):
    # where the platform has no affinity mask, the CPU count, or 1 when unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, want in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _fork.usable_cpus() == want


@pytest.fixture
def fork_refused(monkeypatch):
    """Two usable CPUs, and a call of os.fork fails the test."""
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)


def test_default_bounds_and_parity_claim_stay_in_process(fork_refused, capsys):
    assert cli.run(["verify", "--all"]) == 0
    assert cli.run(["verify", "--claim", "parity-matrix-unimodular", "--n-max", "128"]) == 0
    capsys.readouterr()


def test_runs_of_different_lengths_stay_in_process(fork_refused, monkeypatch):
    # The split needs one n for all the runs, so mixed lengths never fork,
    # whatever their cost.
    _take("forked", monkeypatch)
    runs = [sequences.prefix(APERY_A, 2 * n).terms for n in (3, 30)]
    assert hankel.hankel_minors(runs) == [hankel._leading_minors([values])[0][0] for values in runs]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd on this platform")
def test_failed_fork_closes_its_pipes(monkeypatch):
    # with_child opens two pipes before it forks; a fork that fails (too many
    # processes) leaves nothing open and is raised again as it came.
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError) as raised:
        _fork.with_child(lambda channel: None, lambda channel: None)
    assert raised.value.errno == errno.EAGAIN
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_sigterm_handler_is_set_over_the_default_only_while_the_child_runs(forks):
    # The child keeps the default; any other handler is left as it is.
    def there(parent):
        default = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
        return default, signal.SIGTERM in signal.pthread_sigmask(signal.SIG_BLOCK, ())

    def handler(signum, frame):
        pass

    during, (default, held) = _fork.with_child(lambda child: signal.getsignal(signal.SIGTERM), there)
    assert callable(during) and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    assert default and not held
    previous = signal.signal(signal.SIGTERM, handler)
    try:
        during, (default, held) = _fork.with_child(lambda child: signal.getsignal(signal.SIGTERM), there)
        assert during is handler and signal.getsignal(signal.SIGTERM) is handler
        assert not default and not held
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert signal.SIGTERM not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
    assert len(forks) == 2


def test_child_result_that_cannot_be_pickled_is_raised_here(forks):
    # Pickling the result fails in the child, before anything is written, and
    # the child sends that exception instead.
    def there(parent):
        def nested():
            pass

        return nested

    with pytest.raises(AttributeError, match="Can't pickle local object"):
        _fork.with_child(lambda child: None, there)
    assert len(forks) == 1


def test_send_to_a_process_that_left_is_dropped():
    # Both far ends are closed: the send meets a broken pipe and returns,
    # and the next recv reads end of file.
    read_fd, far_write = os.pipe()
    far_read, write_fd = os.pipe()
    os.close(far_read)
    os.close(far_write)
    channel = _fork.Channel(read_fd, write_fd)
    try:
        assert channel.send(list(range(10))) is None
        with pytest.raises(RuntimeError, match="ended without a result"):
            channel.recv()
    finally:
        channel.close()


def test_child_leaving_without_a_result_is_an_error(forks, monkeypatch):
    # The child leaves at its first call of tau_step, and then at its
    # seventh, after it has sent two messages: with two runs it makes four
    # calls per step.
    parent, real_step, calls = os.getpid(), hankel._tau_step, []

    def step(*args):
        if os.getpid() != parent:
            calls.append(None)
            if len(calls) == leaves_at:
                os._exit(1)
        return real_step(*args)

    monkeypatch.setattr(hankel, "_tau_step", step)
    for leaves_at in (1, 7):
        with pytest.raises(RuntimeError, match="ended without a result"):
            hankel.hankel_minors(_runs("hankel-apery", 30))
    assert len(forks) == 2


# An order-40 0/1 sequence (random, seed 2026) whose leading minor of order
# 19 is 0: the recursion stops after 19 of its 39 steps, in both halves.
ZERO_MINOR_AT_19 = tuple(int(c) for c in
                         "1010001000011111110100000010011010001100111100001111010001011001011100011000100")


def test_split_leading_minors_match_the_kernel(forks):
    # the three claims of the hankel-deep workload
    deep = [[sequences.prefix(s, 2 * n).terms for s in HANKEL_SETS[claim_id]]
            for claim_id in ("hankel-franel", "hankel-domb-clf", "hankel-apery")
            for n in (1, 2, 3, 7, 30)]
    batches = [runs for runs in deep if len(runs[0]) >= 5]  # n >= 2, the split's precondition
    batches += [[(1, 1, 1, 1, 2, 3, 5)], [(0, 1, 1, 1, 2)], [ZERO_MINOR_AT_19]]
    # runs that stop at different steps: the all-ones run after 3 minors, the
    # 0/1 run after 20, and a not at all
    batches.append([ZERO_MINOR_AT_19, (1,) * 79, sequences.prefix(APERY_A, 78).terms])
    # entries in -1..1, so that zero minors stop the runs at many steps
    rng = random.Random(19)
    for _ in range(60):
        count = 2 * rng.randint(2, 12) + 1
        batches.append([tuple(rng.randint(-1, 1) for _ in range(count))
                        for _ in range(rng.randint(2, 4))])
    stops = set()
    for runs in batches:
        got = hankel._split_leading_minors(runs)
        assert got == hankel._leading_minors(runs) == [hankel._leading_minors([values])[0] for values in runs]
        if len(runs[0]) <= 25:
            # n <= 12: Bareiss on each leading block shares no code with the
            # driver that both routes run
            for values, (minors, _, _) in zip(runs, got):
                assert minors == [hankel.det_bareiss(values[: 2 * s + 1]).value for s in range(len(minors))]
        stops.add(tuple(len(minors) for minors, _, _ in got))
    assert len(forks) == len(batches)
    assert (20, 3, 40) in stops
    assert sum(len(set(lengths)) > 1 for lengths in stops) >= 20
    # at n = 1 the child would have no position, so hankel_minors keeps the
    # runs in this process, above the break-even; from n = 2 it forks
    for runs in deep:
        if len(runs[0]) < 5:
            assert hankel.hankel_minors(runs) == [hankel._leading_minors([values])[0][0]
                                                  for values in runs]
    assert len(forks) == len(batches)
    assert hankel.hankel_minors([(1, 2, 10, 56, 346)]) == [[1, 6, 180]]
    assert len(forks) == len(batches) + 1


def test_steps_is_the_number_of_tau_entries(forks):
    # The recursion works its steps out from each run's shape; here they are
    # counted as the entries _tau_step makes, with every step in list form.
    made = []
    tau_step = hankel._tau_step

    def counting(*args):
        nxt, max_bits = tau_step(*args)
        made.append(len(nxt))
        return nxt, max_bits

    def entries(values):
        made.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hankel, "_PACK_MIN_LEN", 10**9)
            mp.setattr(hankel, "_tau_step", counting)
            hankel._leading_minors([values])
        return sum(made)

    rng = random.Random(39)
    complete = [sequences.prefix(franel(3), 2 * n).terms for n in (0, 1, 6, 12)]
    complete += [tuple(rng.randint(-10**6, 10**6) for _ in range(21)), sequences.prefix(APERY_A, 78).terms]
    stopped = [ZERO_MINOR_AT_19, (1,) * 79, (0, 1, 1, 1, 2), (1, 1, 1, 1, 2, 3, 5)]
    parity = tuple(int(i & (i - 1) == 0) for i in range(2, 129))  # the parity claim's run at hi = 64
    for values in complete + stopped + [parity]:
        result = hankel.det_dodgson(values)
        assert result.fallback == (values in stopped)
        bareiss = hankel.det_bareiss(values).steps if result.fallback else 0
        assert result.steps - bareiss == entries(values)
    runs = [ZERO_MINOR_AT_19, (1,) * 79, sequences.prefix(APERY_A, 78).terms]
    assert [steps for _, steps, _ in hankel._split_leading_minors(runs)] == list(map(entries, runs))
    assert len(forks) == 1


@pytest.fixture
def split_refused(monkeypatch):
    """The break-even at 0, and a call of hankel._split_leading_minors fails
    the test."""
    def no_split(runs):
        raise AssertionError("split")

    _take("forked", monkeypatch)
    monkeypatch.setattr(hankel, "_split_leading_minors", no_split)


def test_runs_with_n_below_2_stay_in_process(split_refused, monkeypatch):
    monkeypatch.setattr(_fork, "can_fork", lambda: True)
    for runs in ([(7,)], [(3, 5, 3), (1, 2, 10)], [sequences.prefix(APERY_A, 2).terms] * 3):
        assert hankel.hankel_minors(runs) == [hankel._leading_minors([values])[0][0]
                                              for values in runs]


def test_no_fork_where_can_fork_fails(split_refused, monkeypatch):
    asked = []
    monkeypatch.setattr(_fork, "can_fork", lambda: asked.append(None) or False)
    runs = _runs("hankel-franel", 7)
    assert hankel.hankel_minors(runs) == [hankel._leading_minors([values])[0][0] for values in runs]
    assert len(asked) == 1


def test_forked_route_finishes_the_stopped_runs(forks, monkeypatch):
    # Both runs stop at a zero divisor, in both processes; hankel_minors
    # finishes them in this process on either route.
    runs = [ZERO_MINOR_AT_19, (1,) * 79]
    _take("here", monkeypatch)
    want = hankel.hankel_minors(runs)
    _take("forked", monkeypatch)
    assert hankel.hankel_minors(runs) == want
    assert [len(minors) for minors in want] == [40, 40]
    assert len(forks) == 1


def _unit_minor_moments(diagonal: int, count: int) -> list[int]:
    """x_0..x_{count-1} with x_l the (0, 0) entry of J^l, where J is
    tridiagonal with ``diagonal`` on its diagonal and 1 beside it: every
    leading Hankel minor of these moments is 1 (Krattenthaler, *Advanced
    Determinant Calculus*, 1999), so the recursion divides by nothing, while
    tau_k(l) grows as ``diagonal`` ** (l - k)."""
    size = count // 2 + 1
    column = [1] + [0] * (size - 1)  # J^l e_0
    moments = []
    for _ in range(count):
        moments.append(column[0])
        column = [(column[i - 1] if i else 0) + diagonal * column[i]
                  + (column[i + 1] if i + 1 < size else 0) for i in range(size)]
    return moments


def test_split_messages_wider_than_a_pipe_cross(forks, monkeypatch):
    sent, received = [], []
    send, recv = _fork.Channel.send, _fork.Channel.recv

    def sending(channel, obj):
        sent.append(len(pickle.dumps(obj)))
        send(channel, obj)

    def receiving(channel):
        obj = recv(channel)
        received.append(len(pickle.dumps(obj)))
        return obj

    monkeypatch.setattr(_fork.Channel, "send", sending)
    monkeypatch.setattr(_fork.Channel, "recv", receiving)
    # tau_k(l) has about 600000 (l - k) bits, so every message of these two
    # split runs, an entry or two, is wider than a pipe buffer (64 KiB)
    for values in (_unit_minor_moments(1 << 600_000, count) for count in (7, 9)):  # n = 3, 4
        assert hankel._split_leading_minors([values]) == [hankel._leading_minors([values])[0]]
        received.pop()  # the child's closing message, its max_bits: entries only are counted
    assert len(forks) == 2
    assert len(sent) == 1 + 2 and len(received) == 2 + 3
    assert min(sent + received) > 65536


# The first witness of each claim when term 1 of every prefix it builds is
# one too large, at n_max = min(default, 12).  A claim missing here fails
# test_every_claim_can_fail, so each new claim is shown to detect a wrong term.
FIRST_WITNESS_OF_A_WRONG_TERM = {
    "hankel-franel": "r=3 n=1",
    "hankel-domb-clf": "D n=1",
    "hankel-apery": "b n=1",
    "calkin-divisibility": "r=1 n=1",
    "parity-matrix-unimodular": "franel[r=3] i=1",
    "domb-mod8": "m=1 n=1",
    "domb-mod3": "n=1",
    "domb-iterated-mod3": "n=1",
    "apery-b-congruences": "apery-b-transform-mod2 n=1",
    "apery-a-transform-mod24": "n=3",
    "gessel-mod24": "n=1",
    "barrucand-identity": "n=2",
    "clf-doubling-identity": "n=1",
    "gsum-mod3": "n=1",
    "franel-prime-sums": "p=5 alt-sum",
    "apery-positivity": "apery-b n=2",
}


@pytest.mark.parametrize("claim_id", verify.CLAIM_IDS)
def test_every_claim_can_fail(monkeypatch, capsys, claim_id):
    first_witness = FIRST_WITNESS_OF_A_WRONG_TERM[claim_id]
    _terms_patch({1: 1})(monkeypatch)
    c = verify.claim(claim_id)
    argv = ["verify", "--claim", claim_id]
    n_max = None
    if c.n_max is not None:
        n_max = min(c.n_max, 12)
        argv += ["--n-max", str(n_max)]
    report = c.run(n_max)
    assert not report.passed
    assert report.witnesses[0].index == first_witness
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert f"FAIL at {first_witness}:" in out
    if c.experimental:
        assert code == 0 and f"experimental claim {claim_id} reported failures" in err
    else:
        assert code == 1 and err == ""


def _minors_patch(n: int, change, run: int | None = None):
    """Patch ``hankel.hankel_minors``: det H_n of run ``run``, or of every
    run, becomes ``change(det H_n)``."""
    def patch(monkeypatch):
        real = hankel.hankel_minors

        def corrupt(runs):
            dets = real(runs)
            for r, minors in enumerate(dets):
                if run in (None, r):
                    minors[n] = change(minors[n])
            return dets

        monkeypatch.setattr(hankel, "hankel_minors", corrupt)

    return patch


def _prefix_patch(change):
    """Patch ``verify.prefix``: the terms of every prefix a claim builds
    become ``change(seq_id, terms)``."""
    def patch(monkeypatch):
        real = verify.prefix

        def corrupt(seq_id, n_max):
            got = real(seq_id, n_max)
            return sequences.SequenceTerms(got.id, tuple(change(seq_id, got.terms)))

        monkeypatch.setattr(verify, "prefix", corrupt)

    return patch


def _terms_patch(deltas: dict[int, int], scale=lambda seq_id: 1):
    """Patch ``verify.prefix``: term i of every prefix a claim builds is
    raised by ``deltas[i] * scale(seq_id)``."""
    def change(seq_id, terms):
        terms = list(terms)
        for i, delta in deltas.items():
            terms[i] += delta * scale(seq_id)
        return terms

    return _prefix_patch(change)


def _only(seq_id):
    """A ``_terms_patch`` scale that changes the terms of ``seq_id`` alone."""
    return lambda s: int(s == seq_id)


# One entry per predicate inside each claim: (claim, n_max, primes, a
# corruption that breaks that predicate and no other, every witness it
# gives).  Weakening the predicate drops a witness.
PREDICATE_CORRUPTIONS = {
    # det H_2 + 1 of b and a: no longer divisible by 10^2 or 24^2.  A claim
    # that asks for an odd quotient reads a non-integer one as not odd too
    # (quotient_check returns None), so only this claim, which asks
    # for an integer alone, separates the integer test from the odd test.
    "quotient-integer": ("hankel-apery", 3, None, _minors_patch(2, lambda d: d + 1),
                         ["b n=2", "a n=2"]),
    # det H_2 of f(3) doubled: both its quotients stay integers and positive
    # where asked, and turn even
    "quotient-odd": ("hankel-franel", 3, None, _minors_patch(2, lambda d: 2 * d, run=0),
                     ["r=3 n=2", "r=3 n=2 base=6"]),
    # det H_2 of f(3) negated: 2^-n asks no sign, 6^-n a positive quotient
    "quotient-positive": ("hankel-franel", 3, None, _minors_patch(2, lambda d: -d, run=0),
                          ["r=3 n=2 base=6"]),
    # det H_2 of D, P and d(1) doubled, then negated, as for f(3) above
    "domb-clf-odd": ("hankel-domb-clf", 3, None, _minors_patch(2, lambda d: 2 * d),
                     ["D n=2", "P n=2", "D1 n=2"]),
    "domb-clf-positive": ("hankel-domb-clf", 3, None, _minors_patch(2, lambda d: -d),
                          ["D n=2", "P n=2", "D1 n=2"]),
    "apery-positivity-nonzero": ("apery-positivity", 3, None, _minors_patch(2, lambda d: 0, run=0),
                                 ["apery-b n=2"]),
    # |B_2| = 2 for every case: nonzero, but not a unit
    "parity-unimodular": ("parity-matrix-unimodular", 3, None, _minors_patch(1, lambda d: 2),
                          [f"{s.label()} |B_2|" for s, _ in verify.PARITY_CASES]),
    # x_0 = 2 for every case: B does not read x_0, so only the hypothesis
    # x_0 = 1 sees it
    "lemma23-x0": ("parity-matrix-unimodular", 3, None, _terms_patch({0: 1}),
                   [f"{s.label()} i=0" for s, _ in verify.PARITY_CASES]),
    # x_2 + 1 is odd for every case: 2k no longer divides it, and 4k still
    # does not, as 2 is a power of two
    "lemma23-2k-divides": ("parity-matrix-unimodular", 3, None, _terms_patch({2: 1}),
                           [f"{s.label()} i=2" for s, _ in verify.PARITY_CASES]),
    # x_3 + 2k with each case's own k: 2k still divides it, but 4k no longer
    # does, though 3 is not a power of two.  B is never read from the terms,
    # so only the hypothesis check sees these bits.
    "lemma23-4k-iff-not-power": ("parity-matrix-unimodular", 3, None,
                                 _terms_patch({3: 2}, scale=dict(verify.PARITY_CASES).__getitem__),
                                 [f"{s.label()} i=3" for s, _ in verify.PARITY_CASES]),
    # f(r)_3 = 2(1 + 3^r) has 2-adic valuation 2 or 3, and 3 has two binary
    # ones; f(r)_3 + 2 is still even, with valuation 1
    "calkin-ones": ("calkin-divisibility", 3, None, _terms_patch({3: 2}),
                    [f"r={r} n=3" for r in range(1, 7)]),
    # d(m)_2 = 4 (mod 8), as C(3,1) is odd; d(m)_2 + 2 = 6 (mod 8) is still
    # nonzero mod 8, as it must be at a power of two
    "domb-mod8-residue": ("domb-mod8", 3, None, _terms_patch({2: 2}),
                          [f"m={m} n=2" for m in (1, 2, 3)]),
    # The power-of-two test agrees with the residue for every term, so it can
    # fail only where the claim reads is_power_of_two: 3 called a power of two
    "domb-mod8-power-of-two": ("domb-mod8", 3, None,
                               lambda mp: mp.setattr(verify, "is_power_of_two",
                                                     lambda n: n == 3 or numtheory.is_power_of_two(n)),
                               [f"m={m} n=3" for m in (1, 2, 3)]),
    "domb-mod3": ("domb-mod3", 3, None, _terms_patch({2: 1}), ["n=2"]),
    # d(2)_2 + 1 moves the twice-transformed term n >= 2 by C(n,2) 2^(n-2):
    # 1 at n = 2, 6 = 0 (mod 3) at n = 3
    "domb-iterated-mod3": ("domb-iterated-mod3", 3, None, _terms_patch({2: 1}), ["n=2"]),
    # b_1 + 5 moves b'_n by 5n, odd at n = 1, and leaves every term mod 5
    "apery-b-transform-mod2": ("apery-b-congruences", 2, None, _terms_patch({1: 5}),
                               ["apery-b-transform-mod2 n=1"]),
    # b'' = 0 (mod 5) from n = 1 holds exactly when b_n = 3^n b_0 (mod 5), so
    # with b_0 = 1 the two mod-5 congruences stand or fall together.  b_1 + 2
    # leaves b' even and breaks both: b''_n moves by n 2^n.
    "apery-b-iterated-mod5": ("apery-b-congruences", 2, None, _terms_patch({1: 2}),
                              ["apery-b-iterated-mod5 n=1", "apery-b-iterated-mod5 n=2",
                               "apery-b-powers-mod5 n=1"]),
    # 3b: b' stays even and b'' = 0 (mod 5), but b_n = 3^(n+1) (mod 5)
    "apery-b-powers-mod5": ("apery-b-congruences", 2, None,
                            _prefix_patch(lambda seq_id, terms: [3 * t for t in terms]),
                            [f"apery-b-powers-mod5 n={n}" for n in range(3)]),
    "apery-a-transform-mod24": ("apery-a-transform-mod24", 3, None, _terms_patch({3: 1}), ["n=3"]),
    "gessel-mod24": ("gessel-mod24", 3, None, _terms_patch({2: 1}), ["n=2"]),
    "gsum-mod3": ("gsum-mod3", 3, None, _terms_patch({2: 1}), ["n=2"]),
    "barrucand-identity": ("barrucand-identity", 3, None, _terms_patch({2: 1}, scale=_only(G_SUM)),
                           ["n=2"]),
    "clf-doubling-identity": ("clf-doubling-identity", 3, None, _terms_patch({2: 1}, scale=_only(CLF)),
                              ["n=2"]),
    # f_0 + 3, f_2 + 1 and f_4 - 2: the weighted alternating sum moves by
    # 1/2 - 2/4 = 0 and the half-weight sum by 3 + 1/4 - 2/16 = 3 + 1/8 = 0
    # (mod 25); only the alt-sum moves, by 2 (mod 5)
    "franel-alt-sum": ("franel-prime-sums", None, (5,), _terms_patch({0: 3, 2: 1, 4: -2}),
                       ["p=5 alt-sum"]),
    # f_1 + p and f_2 - 2p: the alt-sum moves by -3p = 0 (mod p) and the
    # half-weight sum by p/2 - 2p/4 = 0 (mod p^2); only the weighted
    # alternating sum moves, by -p/1 - 2p/2 = -2p
    "franel-weighted-alt-sum": ("franel-prime-sums", None, (5,), _terms_patch({1: 5, 2: -10}),
                                ["p=5 weighted-alt-sum"]),
    # f_0 + p: the alt-sum moves by p = 0 (mod p), and of the two mod-p^2
    # sums only the half-weight sum reads f_0
    "franel-half-weight-sum": ("franel-prime-sums", None, (5,), _terms_patch({0: 5}),
                               ["p=5 half-weight-sum"]),
}


@pytest.mark.parametrize("claim_id, n_max, primes, patch, witnesses",
                         PREDICATE_CORRUPTIONS.values(), ids=list(PREDICATE_CORRUPTIONS))
def test_every_predicate_can_fail(monkeypatch, claim_id, n_max, primes, patch, witnesses):
    patch(monkeypatch)
    report = run_claim(claim_id, n_max, primes)
    assert not report.passed
    assert [w.index for w in report.witnesses] == witnesses


# sha256 of the JSON list of every witness (index, observed, expected) that
# the cases above give, in order, recorded while every check still built its
# expected text; blanking or changing any check's failure text changes it
WITNESSES_SHA256 = "70bcefb1938b6f403e78caad4e21de0b5bfa513029d03b8b89e0a70edd687e89"


def test_every_witness_keeps_its_observed_value_and_expected_text(monkeypatch):
    witnesses = []
    for claim_id, n_max, primes, patch, _ in PREDICATE_CORRUPTIONS.values():
        with monkeypatch.context() as mp:
            patch(mp)
            witnesses += run_claim(claim_id, n_max, primes).witnesses
    text = json.dumps(witnesses)
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESSES_SHA256, text


def test_passing_checks_carry_no_expected_text():
    # the text is built only for a witness, except where it is a constant
    constant_texts = {"parity-matrix-unimodular", "domb-mod8", "apery-positivity"}
    for c in verify.REGISTRY:
        if c.claim_id not in constant_texts:
            checks = list(c.checks(*c.bounds()))
            assert all(ok for _, _, ok, _ in checks)
            assert {expected for _, _, _, expected in checks} == {""}, c.claim_id


def test_weighted_alt_sum_witness_reports_its_residue(monkeypatch):
    # the corruption above moves the sum by -2p = 15 (mod 25); with every
    # sign of the sum flipped the witness would read 10
    claim_id, n_max, primes, patch, _ = PREDICATE_CORRUPTIONS["franel-weighted-alt-sum"]
    patch(monkeypatch)
    [witness] = run_claim(claim_id, n_max, primes).witnesses
    assert witness.observed == "15"


@pytest.mark.parametrize("claim_id", sorted(HANKEL_SETS))
def test_hankel_claims_report_a_wrong_minor_from_either_process(forks, monkeypatch, claim_id):
    # det H_1 of every sequence is replaced by -1, which no base divides and
    # which is not positive, so every check at n=1 fails and no other does.
    # Both routes return through hankel_minors, which the claims call.
    real = hankel.hankel_minors

    def wrong_h1(runs):
        dets = real(runs)
        for minors in dets:
            minors[1] = -1
        return dets

    monkeypatch.setattr(hankel, "hankel_minors", wrong_h1)
    forked = run_claim(claim_id, 12)
    assert len(forks) == 1
    at_n1 = [e.index for e in forked.entries if re.search(r"\bn=1\b", e.index)]
    assert len(at_n1) >= len(HANKEL_SETS[claim_id])
    assert [w.index for w in forked.witnesses] == at_n1
    _take("here", monkeypatch)
    assert run_claim(claim_id, 12) == forked
    assert len(forks) == 1
