import json
import os
import pickle
import random
import re
import signal
import time

import pytest

from hankelforge import InexactDivisionError, _fork, _kernels, cli, hankel, sequences, verify
from hankelforge.reports import ReportBuilder, VerificationReport, decimal_str
from hankelforge.sequences import APERY_A, APERY_B, CLF, domb, franel
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
    rep = ReportBuilder("big", "n=0")
    rep.check("n=0", big + 7, True, "")
    rep.check("n=1", -big, False, "> 0")
    report = rep.build()
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
    changes the route) and count the forks made; a parent left waiting on
    its child fails the test, and so does a child left unreaped."""
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    _take("forked", monkeypatch)
    made = []
    real_fork = os.fork

    def fork():
        made.append(None)
        return real_fork()

    def hung(signum, frame):
        raise TimeoutError("the parent waited on its child")

    monkeypatch.setattr(os, "fork", fork)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        yield made
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
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


@pytest.mark.parametrize("exc", [ValueError("bad values 7"),
                                 InexactDivisionError("31 is not divisible by 4")])
def test_child_exception_is_raised_again(forks, monkeypatch, exc):
    parent, real_step = os.getpid(), _fork.tau_step

    def step(*args):
        if os.getpid() != parent:
            raise exc
        return real_step(*args)

    monkeypatch.setattr(_fork, "tau_step", step)
    with pytest.raises(type(exc)) as raised:
        hankel.hankel_minors(_runs("hankel-franel", 30))
    assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    assert len(forks) == 1


def test_parent_failure_with_a_large_child_payload_does_not_hang(forks, monkeypatch):
    # The parent fails at once.  The child's first message, two entries of
    # about 300 KB, is more than a pipe holds, so the child waits in it until
    # read, and after it the child would not end for a minute: either way
    # only a kill lets the parent reap it before the fixture's alarm.
    parent, real_step, calls = os.getpid(), _fork.tau_step, []

    def step(*args):
        if os.getpid() == parent:
            raise ValueError("parent side failed")
        calls.append(None)
        if len(calls) == 3:  # the child's first call after its first message
            time.sleep(60)
        return real_step(*args)

    monkeypatch.setattr(_fork, "tau_step", step)
    with pytest.raises(ValueError, match="parent side failed"):
        _fork.split_leading_minors([_unit_minor_moments(1 << 600_000, 9)] * 2)
    assert len(forks) == 1


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
    assert hankel.hankel_minors(runs) == [_kernels.hankel_leading_minors(values)[0] for values in runs]


def test_child_leaving_without_a_result_is_an_error(forks, monkeypatch):
    # The child leaves at its first call of tau_step, and then at its
    # seventh, after it has sent two messages: with two runs it makes four
    # calls per step.
    parent, real_step, calls = os.getpid(), _fork.tau_step, []

    def step(*args):
        if os.getpid() != parent:
            calls.append(None)
            if len(calls) == leaves_at:
                os._exit(1)
        return real_step(*args)

    monkeypatch.setattr(_fork, "tau_step", step)
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
        got = _fork.split_leading_minors(runs)
        assert got == [_kernels.hankel_leading_minors(values) for values in runs]
        stops.add(tuple(len(minors) for minors, _, _ in got))
    assert len(forks) == len(batches)
    assert (20, 3, 40) in stops
    assert sum(len(set(lengths)) > 1 for lengths in stops) >= 20
    # at n = 1 the child would have no position, so hankel_minors keeps the
    # runs in this process, above the break-even
    for runs in deep:
        if len(runs[0]) < 5:
            assert hankel.hankel_minors(runs) == [_kernels.hankel_leading_minors(values)[0]
                                                  for values in runs]
    assert len(forks) == len(batches)


@pytest.fixture
def split_refused(monkeypatch):
    """The break-even at 0, and a call of _fork.split_leading_minors fails
    the test."""
    def no_split(runs):
        raise AssertionError("split")

    _take("forked", monkeypatch)
    monkeypatch.setattr(_fork, "split_leading_minors", no_split)


def test_runs_with_n_below_2_stay_in_process(split_refused, monkeypatch):
    monkeypatch.setattr(_fork, "can_fork", lambda: True)
    for runs in ([(7,)], [(3, 5, 3), (1, 2, 10)], [sequences.prefix(APERY_A, 2).terms] * 3):
        assert hankel.hankel_minors(runs) == [_kernels.hankel_leading_minors(values)[0]
                                              for values in runs]


def test_no_fork_where_can_fork_fails(split_refused, monkeypatch):
    asked = []
    monkeypatch.setattr(_fork, "can_fork", lambda: asked.append(None) or False)
    runs = _runs("hankel-franel", 7)
    assert hankel.hankel_minors(runs) == [_kernels.hankel_leading_minors(values)[0] for values in runs]
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
        if isinstance(obj[0], int):  # entries, not the child's closing (steps, max_bits)
            received.append(len(pickle.dumps(obj)))
        return obj

    monkeypatch.setattr(_fork.Channel, "send", sending)
    monkeypatch.setattr(_fork.Channel, "recv", receiving)
    # tau_k(l) has about 600000 (l - k) bits, so every message of these two
    # split runs, an entry or two, is wider than a pipe buffer (64 KiB)
    for values in (_unit_minor_moments(1 << 600_000, count) for count in (7, 9)):  # n = 3, 4
        assert _fork.split_leading_minors([values]) == [_kernels.hankel_leading_minors(values)]
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
    real = verify.prefix

    def wrong_term_1(seq_id, n_max):
        got = real(seq_id, n_max)
        terms = list(got.terms)
        terms[1] += 1
        return sequences.SequenceTerms(got.id, tuple(terms))

    monkeypatch.setattr(verify, "prefix", wrong_term_1)
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


def _terms_patch(deltas: dict[int, int], scale=lambda seq_id: 1):
    """Patch ``verify.prefix``: term i of every prefix a claim builds is
    raised by ``deltas[i] * scale(seq_id)``."""
    def patch(monkeypatch):
        real = verify.prefix

        def corrupt(seq_id, n_max):
            got = real(seq_id, n_max)
            terms = list(got.terms)
            for i, delta in deltas.items():
                terms[i] += delta * scale(seq_id)
            return sequences.SequenceTerms(got.id, tuple(terms))

        monkeypatch.setattr(verify, "prefix", corrupt)

    return patch


# One entry per predicate inside a claim that a wrong term does not single
# out: (claim, n_max, primes, a corruption that breaks that predicate and no
# other, every witness it gives).  Weakening the predicate drops a witness.
PREDICATE_CORRUPTIONS = {
    # det H_2 of f(3) doubled: both its quotients stay integers and positive
    # where asked, and turn even
    "quotient-odd": ("hankel-franel", 3, None, _minors_patch(2, lambda d: 2 * d, run=0),
                     ["r=3 n=2", "r=3 n=2 base=6"]),
    # det H_2 of f(3) negated: 2^-n asks no sign, 6^-n a positive quotient
    "quotient-positive": ("hankel-franel", 3, None, _minors_patch(2, lambda d: -d, run=0),
                          ["r=3 n=2 base=6"]),
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
