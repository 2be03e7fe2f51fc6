import json

import pytest

from hankelforge import cli, sequences, verify
from hankelforge.reports import ReportBuilder, VerificationReport, decimal_str
from hankelforge.sequences import APERY_B, domb, franel
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
