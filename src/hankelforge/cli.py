"""Command-line front end.

Subcommands: ``seq`` (print terms), ``hankel`` (evaluate one Hankel
determinant from the sequence's 2n+1 terms), ``verify`` (run claim
harnesses).  Exit codes: 0 all requested checks pass, 1 a proven claim
failed, 2 usage error, 3 internal error (an exception inside the program,
traceback on stderr), 4 stdout could not be written (one line on stderr).
EXPERIMENTAL claims' failures warn, exit 0.

All big integers are rendered as decimal strings, never floats, and
identical inputs produce byte-identical CSV/JSON output.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from typing import Iterable, Sequence

from . import verify
from .hankel import LAPLACE_ORDER_CAP, det_bareiss, det_dodgson, det_laplace, quotient_check
from .reports import VerificationReport, decimal_str
from .sequences import Family, SequenceId, prefix

_ENGINES = {"laplace": det_laplace, "bareiss": det_bareiss, "dodgson": det_dodgson}


def emit_reports(reports: Sequence[VerificationReport], fmt: str = "text") -> bytes:
    """Render several reports as one document (single CSV header, JSON array)."""
    if fmt == "csv":
        return _csv(["claim_id", "n", "value", "status"],
                    ([r.claim_id, e.index, e.value, e.status] for r in reports for e in r.entries)).encode()
    if fmt == "json":
        return _json([_report_obj(r) for r in reports]).encode()
    if fmt == "text":
        return "".join(_report_text(r) for r in reports).encode()
    raise ValueError(f"unknown format {fmt!r}")


def _report_obj(report: VerificationReport) -> dict:
    passes, fails = report.totals()
    return {
        "claim_id": report.claim_id,
        "index_range": report.index_range,
        "experimental": report.experimental,
        "passed": report.passed,
        "totals": {"pass": passes, "fail": fails},
        "entries": [{"n": e.index, "value": e.value, "status": e.status} for e in report.entries],
        "witnesses": [
            {"n": w.index, "observed": w.observed, "expected": w.expected} for w in report.witnesses
        ],
    }


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header line, then one line per row; newline-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json(obj) -> str:
    """Compact JSON, newline-terminated."""
    import json  # loaded only by a JSON run, so that the CLI's start-up does not

    return json.dumps(obj, separators=(",", ":")) + "\n"


def _report_text(report: VerificationReport) -> str:
    passes, fails = report.totals()
    tag = "PASS" if report.passed else "FAIL"
    if report.experimental:
        tag = f"EXPERIMENTAL:{tag}"
    lines = [f"[{tag}] {report.claim_id} ({report.index_range}): {passes}/{len(report.entries)} checks passed"]
    for w in report.witnesses:
        lines.append(f"    FAIL at {w.index}: observed {w.observed}, expected {w.expected}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hankelforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    families = [f.value for f in Family]

    p_seq = sub.add_parser("seq", help="print sequence terms 0..N")
    _add_family_args(p_seq, families)
    p_seq.add_argument("--n", type=_natural, required=True, metavar="N")
    p_seq.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_seq.set_defaults(func=_cmd_seq)

    p_hankel = sub.add_parser("hankel", help="evaluate one Hankel determinant exactly")
    _add_family_args(p_hankel, families)
    p_hankel.add_argument("--n", type=_natural, required=True, metavar="N",
                          help="order index: the matrix is (N+1) x (N+1)")
    p_hankel.add_argument("--engine", choices=sorted(_ENGINES), default="bareiss")
    p_hankel.add_argument("--base", type=int, help="run a quotient check against BASE**EXP")
    p_hankel.add_argument("--exp", type=_natural, help="quotient exponent (default: N)")
    p_hankel.set_defaults(func=_cmd_hankel)

    p_verify = sub.add_parser("verify", help="run claim harnesses")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every registered claim")
    group.add_argument("--claim", choices=verify.CLAIM_IDS, metavar="ID",
                       help=f"one of: {', '.join(verify.CLAIM_IDS)}")
    p_verify.add_argument("--n-max", type=int, default=None,
                          help="override the per-claim default index bound")
    p_verify.add_argument("--primes", type=_parse_primes, default=None, metavar="P1,P2,...",
                          help="primes for franel-prime-sums (default 5..97)")
    p_verify.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _add_family_args(p: argparse.ArgumentParser, families: list[str]) -> None:
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--r", type=int, default=None, help="order for --family franel (default 3)")
    p.add_argument("--m", type=int, default=None, help="order for --family domb (default 2)")


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}")


class _UsageError(Exception):
    pass


def _sequence_id(args) -> SequenceId:
    family = Family(args.family)
    if args.r is not None and family is not Family.FRANEL_R:
        raise _UsageError("--r applies to --family franel only")
    if args.m is not None and family is not Family.DOMB_M:
        raise _UsageError("--m applies to --family domb only")
    param = 0
    if family is Family.FRANEL_R:
        param = 3 if args.r is None else args.r
    elif family is Family.DOMB_M:
        param = 2 if args.m is None else args.m
    try:
        return SequenceId(family, param)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_seq(args) -> int:
    seq_id = _sequence_id(args)
    terms = prefix(seq_id, args.n).terms
    if args.format == "text":
        _write(" ".join(decimal_str(t) for t in terms) + "\n")
    elif args.format == "csv":
        _write(_csv(["index", "value"], enumerate(map(decimal_str, terms))))
    else:
        _write(_json({
            "family": seq_id.family.value,
            "param": seq_id.param or None,
            "n_max": args.n,
            "terms": [decimal_str(t) for t in terms],
        }))
    return 0


def _cmd_hankel(args) -> int:
    seq_id = _sequence_id(args)
    if args.engine == "laplace" and args.n + 1 > LAPLACE_ORDER_CAP:
        raise _UsageError(f"laplace engine capped at order {LAPLACE_ORDER_CAP}, got {args.n + 1}")
    if args.base is None and args.exp is not None:
        raise _UsageError("--exp requires --base")
    if args.base is not None and args.base < 2:
        raise _UsageError("--base must be at least 2")
    result = _ENGINES[args.engine](prefix(seq_id, 2 * args.n).terms)
    _write(f"det {decimal_str(result.value)}\n")
    _write(f"engine {args.engine.upper()}{' (bareiss fallback)' if result.fallback else ''}\n")
    _write(f"steps {result.steps}\n")
    _write(f"max_bits {result.max_bits}\n")
    if args.base is not None:
        exponent = args.n if args.exp is None else args.exp
        q = quotient_check(result.value, args.base, exponent)
        if q is None:
            _write(f"quotient none ({decimal_str(result.value)} not divisible by {args.base}^{exponent})\n")
        else:
            flags = f"odd={'yes' if q % 2 else 'no'} positive={'yes' if q > 0 else 'no'}"
            _write(f"quotient {decimal_str(q)} ({flags})\n")
    return 0


def _cmd_verify(args) -> int:
    if args.claim and args.primes is not None and verify.claim(args.claim).primes is None:
        takers = ", ".join(c.claim_id for c in verify.REGISTRY if c.primes is not None)
        raise _UsageError(f"--primes applies to {takers} only, not {args.claim}")
    if args.claim and args.n_max is not None and verify.claim(args.claim).n_max is None:
        raise _UsageError(f"--n-max does not apply to {args.claim}, which takes no index bound")
    claims = verify.REGISTRY if args.all else (verify.claim(args.claim),)
    for claim in claims:
        try:
            claim.bounds(args.n_max, args.primes)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    reports = [claim.run(args.n_max, args.primes) for claim in claims]
    _write(emit_reports(reports, args.format))
    exit_code = 0
    for report in reports:
        if report.passed:
            continue
        if report.experimental:
            print(f"WARNING: experimental claim {report.claim_id} reported failures (non-gating)",
                  file=sys.stderr)
        else:
            exit_code = 1
    return exit_code


def _write(data: str | bytes = "") -> None:
    """Write ``data`` to stdout and flush it.  A write that fails (a full
    device, a closed pipe) is no fault of the program: exit 4, saying why."""
    try:
        (sys.stdout.buffer if isinstance(data, bytes) else sys.stdout).write(data)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write to standard output: {exc.strerror or exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit: what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(4) from None


def run(argv: Sequence[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse prints its own message; 2 on usage error
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        _write()  # what argparse printed, before the interpreter's flush at exit
    except Exception:  # a bug, not a refuted claim: keep the traceback as its report
        import traceback

        traceback.print_exc()
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
