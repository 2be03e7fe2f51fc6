import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hankelforge import cli, term, verify
from hankelforge.reports import ReportEntry, VerificationReport, Witness
from hankelforge.sequences import Family, franel

from oracle_helpers import CATALOG


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_text(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "franel", "--r", "3", "--n", "4")
    assert code == 0
    assert out == "1 2 10 56 346\n"


def test_seq_defaults_param(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "franel", "--n", "3")
    assert code == 0
    assert out == "1 2 10 56\n"
    code, out, _ = run_cli(capsys, "seq", "--family", "domb", "--n", "2")
    assert out == "1 4 28\n"


def test_seq_csv(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "central", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "index,value\n0,1\n1,2\n2,6\n3,20\n"


def test_seq_json_round_trips_big_integers(capsys):
    from hankelforge.sequences import APERY_A

    code, out, _ = run_cli(capsys, "seq", "--family", "apery-a", "--n", "40", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "apery-a"
    assert obj["param"] is None
    for n, s in enumerate(obj["terms"]):
        assert isinstance(s, str)
        assert int(s) == term(APERY_A, n)
    # the last term overflows 64-bit by a wide margin and must survive exactly
    assert term(APERY_A, 40) > 2**127


def test_hankel_with_quotient(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "--family", "domb", "--n", "1", "--engine", "bareiss",
        "--base", "12", "--exp", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "det 12"
    assert lines[1] == "engine BAREISS"
    assert lines[4] == "quotient 1 (odd=yes positive=yes)"


def test_hankel_non_divisible_quotient(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "--family", "franel", "--n", "1", "--base", "7", "--exp", "2"
    )
    assert code == 0
    assert "quotient none (6 not divisible by 7^2)" in out


def test_hankel_dodgson_engine_condenses_antidiagonals(capsys):
    # The Chebyshev recursion on 1 2 10 56 346: step 0 gives tau_1 =
    # (10 - 2*2, 56 - 2*10, 346 - 2*56) = (6, 36, 234); step 1 divides by
    # Delta_1 = 1, with w = 2*36 - 6*10 = 12 and 6*(234 + 12) - 36*36 = 180.
    # That is 3 + 1 = 4 entries, and no numerator is wider than the 9-bit
    # input 346.
    code, out, _ = run_cli(capsys, "hankel", "--family", "franel", "--n", "2", "--engine", "dodgson")
    assert code == 0
    assert out == "det 180\nengine DODGSON\nsteps 4\nmax_bits 9\n"


def test_hankel_prints_values_above_str_digit_limit(capsys):
    # entries near 20^2000 give a det of about 4,760 digits
    from hankelforge.reports import decimal_str

    from oracle_helpers import brute_prefix, det_fractions, hankel_rows

    expected = det_fractions(hankel_rows(brute_prefix(franel(2000), 6), 3))
    code, out, err = run_cli(
        capsys, "hankel", "--family", "franel", "--r", "2000", "--n", "3", "--base", "2", "--exp", "3"
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == f"det {decimal_str(expected)}"
    assert len(lines[0]) > 4300
    assert lines[4].startswith(f"quotient {decimal_str(expected // 8)} (odd=")


def test_hankel_exp_requires_base(capsys):
    code, _, err = run_cli(capsys, "hankel", "--family", "franel", "--n", "1", "--exp", "2")
    assert code == 2
    assert "requires --base" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "seq", "--family", "nope", "--n", "3")[0] == 2
    assert run_cli(capsys, "seq", "--family", "clf", "--r", "4", "--n", "3")[0] == 2
    assert run_cli(capsys, "seq", "--family", "franel", "--m", "2", "--n", "3")[0] == 2
    assert run_cli(capsys, "verify", "--claim", "bogus")[0] == 2
    assert run_cli(capsys, "verify", "--all", "--primes", "5,x")[0] == 2
    assert run_cli(capsys, "seq", "--family", "franel", "--r", "0", "--n", "3")[0] == 2
    for argv in (
        ("seq", "--family", "franel", "--n", "-1"),
        ("hankel", "--family", "franel", "--n", "-1"),
        ("hankel", "--family", "franel", "--n", "2", "--base", "1"),
        ("hankel", "--family", "franel", "--n", "2", "--base", "2", "--exp", "-1"),
        ("hankel", "--family", "franel", "--engine", "laplace", "--n", "12"),
        ("seq", "--family", "domb", "--m", "0", "--n", "3"),
        ("verify", "--all", "--n-max", "-1"),
        ("verify", "--claim", "franel-prime-sums", "--n-max", "-1"),
        ("verify", "--all", "--primes", "9"),
        ("verify", "--claim", "calkin-divisibility", "--n-max", "0"),
        ("verify", "--claim", "domb-mod3", "--primes", "5"),
        ("verify", "--claim", "franel-prime-sums", "--n-max", "0"),
        ("verify", "--claim", "franel-prime-sums", "--n-max", "50"),
        ("verify", "--claim", "franel-prime-sums", "--primes", "10007"),
        ("verify", "--all", "--primes", "5,1000003"),
        ("verify", "--claim", "franel-prime-sums", "--primes", "5,7,5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "error:" in err and "Traceback" not in err, argv
    for argv, message in (
        (("seq", "--family", "franel", "--n", "x"), "invalid int value: 'x'"),
        (("bench", "--family", "franel", "--n", "2"), "invalid choice: 'bench'"),
        (("verify", "--claim", "domb-mod3", "--primes", "5"),
         "error: --primes applies to franel-prime-sums only, not domb-mod3\n"),
        (("verify", "--claim", "franel-prime-sums", "--n-max", "5"),
         "error: --n-max does not apply to franel-prime-sums, which takes no index bound\n"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err and "Traceback" not in err, argv


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(verify.Claim, "run", boom)
    with pytest.raises(ValueError, match="boom"):
        cli.run(["verify", "--claim", "domb-mod3", "--n-max", "3"])


def test_internal_error_exits_3_with_traceback(capsys, monkeypatch):
    # A bug inside a claim is neither a refuted claim (1) nor a usage error (2).
    from hankelforge import _kernels
    from hankelforge.exact import InexactDivisionError

    def boom(values):
        raise InexactDivisionError("boom")

    monkeypatch.setattr(_kernels, "hankel_leading_minors", boom)
    monkeypatch.setattr("sys.argv", ["hankelforge", "verify", "--claim", "hankel-franel"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    err = capsys.readouterr().err
    assert info.value.code == 3
    assert "Traceback" in err and "InexactDivisionError: boom" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("args", [("verify", "--all", "--format", "csv"),
                                  ("seq", "--family", "franel", "--n", "5"),
                                  ("--help",)],  # printed by argparse, flushed at exit
                         ids=["verify", "seq", "help"])
def test_failed_write_to_stdout_exits_4_with_one_line(args):
    # Every write to /dev/full fails with ENOSPC: not a bug, so no traceback,
    # and nothing more when the interpreter flushes stdout on its way out.
    src = Path(cli.__file__).resolve().parents[1]
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-c", "from hankelforge.cli import main; main()", *args],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 4
    assert done.stderr == f"error: cannot write to standard output: {os.strerror(errno.ENOSPC)}\n"


def test_verify_empty_range_exits_2(capsys):
    claim_ids = [c.claim_id for c in verify.REGISTRY if c.n_min >= 1]
    assert "parity-matrix-unimodular" in claim_ids and "apery-b-congruences" in claim_ids
    for claim_id in claim_ids:
        code, out, err = run_cli(capsys, "verify", "--claim", claim_id, "--n-max", "0")
        assert code == 2
        assert "PASS" not in out
        assert f"is empty for {claim_id}" in err


def test_verify_parity_hypothesis_failure_exits_1(capsys, monkeypatch):
    from hankelforge.sequences import APERY_B

    monkeypatch.setattr(verify, "PARITY_CASES", ((APERY_B, 1),))
    code, out, err = run_cli(capsys, "verify", "--claim", "parity-matrix-unimodular", "--n-max", "4")
    assert code == 1
    assert "error" not in err
    assert "[FAIL] parity-matrix-unimodular" in out
    assert "FAIL at apery-b i=1" in out


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_verify_single_claim_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--claim", "domb-mod3", "--n-max", "3", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "claim_id,n,value,status\n"
        "domb-mod3,n=0,1,pass\n"
        "domb-mod3,n=1,1,pass\n"
        "domb-mod3,n=2,1,pass\n"
        "domb-mod3,n=3,1,pass\n"
    )


def test_verify_all_passes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--all", "--n-max", "4", "--primes", "5,7", "--format", "text"
    )
    assert code == 0
    assert "WARNING" not in err
    assert out.count("[PASS]") == len(verify.CLAIM_IDS) - 1
    assert "[EXPERIMENTAL:PASS] apery-positivity" in out


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--all", "--n-max", "4", "--primes", "5,7", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    reports = json.loads(first)
    assert [r["claim_id"] for r in reports] == list(verify.CLAIM_IDS)
    for r in reports:
        for e in r["entries"]:
            assert isinstance(e["value"], str)


def test_experimental_failure_warns_but_exits_zero(capsys, monkeypatch):
    failing = VerificationReport(
        "apery-positivity",
        "n=0..1",
        (ReportEntry("n=0", "-5", "fail"),),
        (Witness("n=0", "-5", "> 0"),),
        experimental=True,
    )
    monkeypatch.setattr(verify.Claim, "run", lambda *a, **k: failing)
    code, out, err = run_cli(capsys, "verify", "--claim", "apery-positivity")
    assert code == 0
    assert "EXPERIMENTAL:FAIL" in out
    assert "non-gating" in err


def test_proven_failure_exits_one(capsys, monkeypatch):
    failing = VerificationReport(
        "domb-mod3",
        "n=0..1",
        (ReportEntry("n=0", "2", "fail"),),
        (Witness("n=0", "2", "= 1 (mod 3)"),),
    )
    monkeypatch.setattr(verify.Claim, "run", lambda *a, **k: failing)
    code, out, _ = run_cli(capsys, "verify", "--claim", "domb-mod3")
    assert code == 1
    assert "FAIL at n=0" in out


def test_emit_report_formats():
    report = verify.run_claim("gsum-mod3", n_max=3)
    csv_bytes = cli.emit_reports([report], "csv")
    assert csv_bytes.startswith(b"claim_id,n,value,status\n")
    obj = json.loads(cli.emit_reports([report], "json"))[0]
    assert obj["claim_id"] == "gsum-mod3"
    text = cli.emit_reports([report], "text").decode()
    assert text.startswith("[PASS] gsum-mod3")
    with pytest.raises(ValueError):
        cli.emit_reports([report], "xml")


def test_spec_json_quotient_example():
    # determinants 1, 6, 180 give base-6 quotients "1", "1", "5"
    report = verify.run_claim("hankel-franel", 2)
    obj = json.loads(cli.emit_reports([report], "json"))[0]
    quotients = [e["value"] for e in obj["entries"] if e["n"].endswith("base=6")]
    assert quotients == ["1", "1", "5"]


# SHA-256 of the full stdout of `verify --all`, recorded before the claims were
# folded into one registry table; any change to a value, label, order or
# index range shows here.
GOLDEN_VERIFY_ALL = {
    ("--n-max", "4", "--primes", "5,7", "--format", "csv"):
        "3b07bff09ec664f0b305ba649fb1d7516aef70e362347d72695a80c5c39fee22",
    ("--n-max", "4", "--primes", "5,7", "--format", "json"):
        "481cc6c59f73a5ba9f6d89a7cbe5280280d0a7e67b68f47eedd14bc17d1f0a92",
    ("--format", "csv"):
        "04c35c58b64376d8b7f20b418b8c25dedf77e8afb12e6760579eddd5973fd600",
    ("--format", "json"):
        "87530733cd53e33d24e0b5b9749bfe824e823993f72b4efd49621bd881d7396c",
    ("--format", "text"):
        "1b92f5daba6e209cb6897cf40350b8933b475222b2719bdff0c55ead45e17afc",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_VERIFY_ALL))
def test_verify_all_output_matches_golden_digest(capsys, args):
    code, out, _ = run_cli(capsys, "verify", "--all", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_ALL[args]


def test_verify_all_csv_as_a_process_matches_golden_digest():
    # The command the benchmark's verify-all workload times: -S keeps site's
    # imports out, and -W error turns a warning on the import path into a fault.
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-W", "error", "-m", "hankelforge.cli",
                           "verify", "--all", "--format", "csv"],
                          capture_output=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN_VERIFY_ALL[("--format", "csv")]


# SHA-256 of the full stdout of single claims at bounds above their defaults.
# The f(5), f(6) and d(3) terms of the first three came from summation when
# recorded, and the transforms of the last four from Pascal-row products; they
# pin the recurrence route and the difference-table transform.
GOLDEN_VERIFY_CLAIM = {
    ("--claim", "calkin-divisibility", "--n-max", "1000", "--format", "csv"):
        "41eb799e95e0122c015c770a116a3c376ee3ea27cd9be4ec54519b5b3566b6fa",
    ("--claim", "domb-mod8", "--n-max", "600", "--format", "csv"):
        "e04b003b3db84090b48420bb650142983e825002c34881a297b19a67e3e12cd9",
    ("--claim", "parity-matrix-unimodular", "--n-max", "128", "--format", "csv"):
        "700601d37fd98cbc2db343222aaaaaf736d4079e45d6f27dc3f93cfcfc5e8a82",
    ("--claim", "barrucand-identity", "--n-max", "600", "--format", "csv"):
        "ebf2705f35ee5a14543bca7f9309df5b26a0c5232024de11032841cf5121322d",
    ("--claim", "apery-b-congruences", "--n-max", "600", "--format", "csv"):
        "e064731c74f089d4d3728a4a1c6221546ad388b998162f402abc6d9977ce52fd",
    ("--claim", "domb-iterated-mod3", "--n-max", "600", "--format", "csv"):
        "0261ee0581d1d7c361cbc019a8d0ce18140a567217ed6bbc1e73e3f7ecd96401",
    ("--claim", "apery-a-transform-mod24", "--n-max", "600", "--format", "csv"):
        "f8a2ecab8b66389b02c25fd6c596d3f54b8dd6a927d822aa1759b86329f55618",
    # Recorded when the residue claims reduced their terms once and ran the
    # exact difference table, and franel-prime-sums built one prefix per prime
    # and summed the full terms; 9941 = 2 and 9967, 9973 = 1 (mod 3).
    ("--claim", "domb-mod3", "--n-max", "600", "--format", "csv"):
        "99b6e684a7cc771dbc3e88d5ea8f2218eb2db62867121ee3e099ca000e6e5394",
    ("--claim", "gessel-mod24", "--n-max", "600", "--format", "csv"):
        "018e2301650ce75c5f0678dac52b5a2e4855952fea30c997b8cd0afd97526d7a",
    ("--claim", "gsum-mod3", "--n-max", "600", "--format", "csv"):
        "2e7e6a68a705d0902a111f85fe1e543c8668244ed18aacfd53e809b89efb24c9",
    ("--claim", "franel-prime-sums", "--primes", "9941,9967,9973", "--format", "csv"):
        "9dff7139cb65a763e5ea38c8a133fe0023b99460a17c688ca7c253c06b37c818",
    # Recorded when the Hankel claims still built each (n+1)^2 matrix and read
    # its antidiagonal values back; they pin the values route at order 31.
    ("--claim", "hankel-franel", "--n-max", "30", "--format", "csv"):
        "de1004829137e9b851ecd03df8c584f9ecd3fadac70bae45020217c1bd01f63d",
    ("--claim", "hankel-domb-clf", "--n-max", "30", "--format", "csv"):
        "7594d55f293b5733828974dccb3c45951d804c87c20e460b84a8538fdf652fc3",
    ("--claim", "hankel-apery", "--n-max", "30", "--format", "csv"):
        "2cb450e191cac6731edc6c737f320ad6de25f7fde49dad5d25976bed1681f1e5",
    ("--claim", "apery-positivity", "--n-max", "30", "--format", "csv"):
        "5424343b4f0a64b7de35846297c6bdd33b1dd7e8fb89accab5d5fb7737367942",
    # Recorded before the Hankel claims split their minors runs between the
    # process and a forked child; at n=50 they take that path wherever two
    # CPUs are usable.
    ("--claim", "hankel-franel", "--n-max", "50", "--format", "csv"):
        "2cbe51f106118600ddd8c15b6341a77bd322eef8a9375ed5195d0296ef1604b0",
    ("--claim", "hankel-domb-clf", "--n-max", "50", "--format", "csv"):
        "e3b92c0e0238110ad01813d07aeba937b0fc5c6ab59c7b42715c477fae969f66",
    ("--claim", "hankel-apery", "--n-max", "50", "--format", "csv"):
        "55cde2629d92a9a7aa8384b60d5c333fc7934da15d24e49da22dd67b4e0d51ea",
    # Recorded before a single minors run could be split by position between
    # the process and a forked child; at n=50 this claim's runs take that path.
    ("--claim", "apery-positivity", "--n-max", "50", "--format", "csv"):
        "323d32583e0f74a1a4fb2d5ef916fa44eb47d7d6569e0afc03c100bdc334b102",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_VERIFY_CLAIM))
def test_verify_claim_at_raised_bound_matches_golden_digest(capsys, args):
    code, out, _ = run_cli(capsys, "verify", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_CLAIM[args]


def _family_args(seq_id):
    flag = {Family.FRANEL_R: "--r", Family.DOMB_M: "--m"}.get(seq_id.family)
    return ("--family", seq_id.family.value) + ((flag, str(seq_id.param)) if flag else ())


# The oracle catalog plus f(1) = 2^n, whose order-2 minor is 0, so DODGSON
# takes its Bareiss fallback from n = 2 on; n = 12 and 30 are above the
# Laplace cap, so those runs are refusals (exit 2, empty stdout).
_GOLDEN_SEQUENCES = CATALOG + (franel(1),)
_GOLDEN_ORDERS = (0, 1, 5, 9, 12, 30)

# SHA-256 over every `hankel` run's argv, exit code and stdout.  Recorded while
# the engines still took an (n+1) x (n+1) matrix built from the terms; it pins
# the determinant, steps, max_bits, quotient and fallback tag of every run,
# and the Laplace refusals.
GOLDEN_HANKEL = "02049abfdec15f16b5fc228423b4ec5daf4f398d442ef02677ac19952bbd6eb2"


def test_hankel_output_matches_golden_digest(capsys):
    digest = hashlib.sha256()
    for seq_id in _GOLDEN_SEQUENCES:
        for n in _GOLDEN_ORDERS:
            for engine in ("laplace", "bareiss", "dodgson"):
                argv = ("hankel", *_family_args(seq_id), "--n", str(n), "--engine", engine, "--base", "2")
                code, out, _ = run_cli(capsys, *argv)
                digest.update(f"{argv} {code}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_HANKEL


# SHA-256 over every `seq` run's argv, exit code and stdout; recorded while
# `seq` still built its own CSV writer and made its own json.dumps call.
_SEQ_ORDERS = (0, 1, 5, 40)
GOLDEN_SEQ = "4c3e7378323855371f4c00e13ca5046a3b10666e61653191b4825133499c85e1"


def test_seq_output_matches_golden_digest(capsys):
    digest = hashlib.sha256()
    for seq_id in _GOLDEN_SEQUENCES:
        for n in _SEQ_ORDERS:
            for fmt in ("text", "csv", "json"):
                argv = ("seq", *_family_args(seq_id), "--n", str(n), "--format", fmt)
                code, out, _ = run_cli(capsys, *argv)
                digest.update(f"{argv} {code}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_SEQ
