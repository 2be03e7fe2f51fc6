import json
import os
import pickle
import signal

import pytest

from hankelforge import InexactDivisionError, _fork, cli, hankel, sequences, verify
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


@pytest.fixture
def forks(monkeypatch):
    """Force the minors split on (two usable CPUs, no break-even) and count
    the forks made; a parent left waiting on its child fails the test."""
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "_FORK_MIN_COST", 1)
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


def _fail_in(where: str, exc: BaseException, monkeypatch):
    """Make hankel_minors raise ``exc`` in the forked child or in this process."""
    parent, real = os.getpid(), hankel.hankel_minors

    def minors(values):
        if (os.getpid() == parent) == (where == "parent"):
            raise exc
        return real(values)

    monkeypatch.setattr(hankel, "hankel_minors", minors)


@pytest.mark.parametrize("claim_id", sorted(HANKEL_SETS))
def test_forked_minors_match_in_process(forks, monkeypatch, claim_id):
    seq_ids = HANKEL_SETS[claim_id]
    want = [hankel.hankel_minors(sequences.prefix(s, 60).terms) for s in seq_ids]
    assert verify._hankel_dets(seq_ids, 30) == want
    assert len(forks) == 1
    forked = run_claim(claim_id, 30)
    monkeypatch.setattr(verify, "_FORK_MIN_COST", 10**30)
    assert forked == run_claim(claim_id, 30)
    assert len(forks) == 2


@pytest.mark.parametrize("exc", [ValueError("bad values 7"),
                                 InexactDivisionError("31 is not divisible by 4")])
def test_child_exception_is_raised_again(forks, monkeypatch, exc):
    _fail_in("child", exc, monkeypatch)
    with pytest.raises(type(exc)) as raised:
        verify._hankel_dets(HANKEL_SETS["hankel-franel"], 30)
    assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    assert len(forks) == 1


def test_parent_failure_with_a_large_child_payload_does_not_hang(forks, monkeypatch):
    seq_ids = [franel(6)] * 6  # equal costs: the child takes three runs
    one = hankel.hankel_minors(sequences.prefix(franel(6), 100).terms)
    assert len(pickle.dumps([list(one) for _ in range(3)])) > 65536  # more than a pipe holds
    _fail_in("parent", ValueError("parent side failed"), monkeypatch)
    with pytest.raises(ValueError, match="parent side failed"):
        verify._hankel_dets(seq_ids, 50)
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


def test_child_leaving_without_a_result_is_an_error(forks, monkeypatch):
    parent, real = os.getpid(), hankel.hankel_minors
    monkeypatch.setattr(hankel, "hankel_minors",
                        lambda values: real(values) if os.getpid() == parent else os._exit(1))
    with pytest.raises(RuntimeError, match="ended without a result"):
        verify._hankel_dets(HANKEL_SETS["hankel-apery"], 30)
    assert len(forks) == 1


def test_split_map_weighs_the_lighter_share(fork_refused):
    # dealt 5 | 4 + 3: the lighter share costs 5, below 6, although the
    # costs other than the largest add up to 7
    assert _fork.split_map(str, [5, 4, 3], [5, 4, 3], 6) == ["5", "4", "3"]
