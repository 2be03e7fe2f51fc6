#!/usr/bin/env python3
"""One benchmark process: import hankelforge, warm up, then run passes.

run.py starts this script in a fresh interpreter for every set-up it times,
so memory and cache state belong to one workload.  It reports on stdout as
JSON lines: a "ready" event when the first timed pass can begin, then a
"result" event.

Modes:
  setup      import and warm up, report "ready", exit
  measure    ... then run timed passes for --seconds
  trace      ... then alternate untraced and traced passes for --seconds
  cli-trace  run ``hankelforge.cli.run`` once under the tracer, CSV to
             stdout, trace to --trace-out (the traced verify-all pass)
  record     write the reference digests of every workload
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path.cwd()
MIN_PASSES = 3  # fewest timed passes a measure run makes, whatever --seconds says
PASS_TIMEOUT_S = 150


@dataclass
class Pass:
    wall_s: float = 0.0
    scaled_s: float = 0.0  # wall time scaled to the probe's reference speed
    probe_s: float = 0.0  # time spent in the speed probe, outside the timed segments
    checks: int = 0
    ok: bool = True
    segments: list = field(default_factory=list)  # (probe before, wall, probe after)


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def cli_command() -> list[str]:
    return [sys.executable, "-m", "hankelforge.cli", *workloads.CLI_ARGS]


def segment(pas: Pass, fn):
    """Time one call, between two runs of the speed probe; returns its result."""
    probe_start = time.perf_counter()
    before = workloads.probe_s()
    start = time.perf_counter()
    out = fn()
    end = time.perf_counter()
    after = workloads.probe_s()
    pas.probe_s += (start - probe_start) + (time.perf_counter() - end)
    pas.wall_s += end - start
    pas.scaled_s += (end - start) * workloads.PROBE_REF_S / ((before + after) / 2)
    pas.segments.append((before, end - start, after))
    return out


def cli_pass(reference: dict, cmd: list[str]) -> Pass:
    pas = Pass()
    proc = segment(pas, lambda: subprocess.run(
        cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, timeout=PASS_TIMEOUT_S))
    pas.checks = proc.stdout.count(b"\n") - 1
    pas.ok = (proc.returncode == 0
              and hashlib.sha256(proc.stdout).hexdigest() == reference["verify-all"]["csv_sha256"])
    return pas


def library_pass(verify, claims, reference: dict) -> Pass:
    pas = Pass()
    for cid, n_max in claims:
        report = segment(pas, lambda: verify.run_claim(cid, n_max))
        pas.checks += len(report.entries)
        pas.ok = (pas.ok
                  and (report.passed or report.experimental)
                  and workloads.report_digest(report) == reference["claims"][workloads.claim_key(cid, n_max)])
    return pas


def guarded(run_pass) -> Pass:
    """A pass that raises counts as failed; the run goes on."""
    try:
        return run_pass()
    except Exception:  # noqa: BLE001 - the benchmark loop must keep running
        traceback.print_exc()
        return Pass(ok=False)


def import_package() -> float:
    start = time.perf_counter()
    import hankelforge.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    import hankelforge

    src = (ROOT / "src").resolve()
    if Path(hankelforge.__file__).resolve().parent.parent != src:
        raise SystemExit(f"hankelforge was imported from {hankelforge.__file__}, not {src}")
    return elapsed


def package_stamp() -> dict:
    import hankelforge
    from hankelforge import binomial

    limit = getattr(binomial, "cache_limit", None)
    return {
        "backend": getattr(hankelforge, "BACKEND", None),
        "binom_cache_limit": limit() if limit else None,
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
    }


def peak_rss_mb(workload) -> float:
    # ru_maxrss is in KiB on Linux.  The verify-all passes are child
    # processes; RUSAGE_CHILDREN holds the largest of them.
    who = resource.RUSAGE_CHILDREN if workload.is_cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_cli_trace(trace_out: Path) -> int:
    import_s = import_package()
    from hankelforge import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(list(workloads.CLI_ARGS))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.import_s"] = import_s
    trace_out.write_text(json.dumps(
        {"metrics": metrics, "spans": tracer.span_records(0), "missing": tracer.missing}))
    return code


def record_reference() -> None:
    import_package()
    from hankelforge import verify

    proc = subprocess.run(cli_command(), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          cwd=ROOT, check=True)
    claims = {}
    for w in workloads.WORKLOADS.values():
        for cid, n_max in w.claims:
            report = verify.run_claim(cid, n_max)
            if not (report.passed or report.experimental):
                raise SystemExit(f"{cid} at n_max={n_max} fails; not recording it as the reference")
            claims[workloads.claim_key(cid, n_max)] = workloads.report_digest(report)
    workloads.REFERENCE_FILE.write_text(json.dumps({
        "verify-all": {"csv_sha256": hashlib.sha256(proc.stdout).hexdigest(),
                       "csv_bytes": len(proc.stdout)},
        "claims": claims,
        "stamp": package_stamp(),
    }, indent=2) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "cli-trace", "record"))
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()

    if args.mode == "cli-trace":
        return run_cli_trace(args.trace_out)
    if args.mode == "record":
        record_reference()
        return 0

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    import_s = import_package()
    from hankelforge import verify

    if workload.is_cli:
        untraced = lambda order: cli_pass(reference, cli_command())  # noqa: E731
    else:
        untraced = lambda order: library_pass(verify, order, reference)  # noqa: E731
    warm = guarded(lambda: untraced(workload.claims))
    emit("ready", import_s=import_s, warmup_ok=warm.ok, warmup=asdict(warm), stamp=package_stamp())
    if args.mode == "setup":
        return 0

    rng = random.Random(args.seed)

    def shuffled():
        return rng.sample(workload.claims, len(workload.claims))

    passes: list[Pass] = []
    start = time.perf_counter()
    if args.mode == "measure":
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            order = shuffled()
            passes.append(guarded(lambda: untraced(order)))
        emit("result", passes=[asdict(p) for p in passes], peak_rss_mb=peak_rss_mb(workload))
        return 0

    # trace: untraced and traced passes alternate, so both see the same
    # machine; the traced ones give the per-layer metrics.
    traced: list[Pass] = []
    layer_runs: list[dict] = []
    spans: list[dict] = []
    missing: set[str] = set()
    while not traced or time.perf_counter() - start < args.seconds:
        order = shuffled()
        passes.append(guarded(lambda: untraced(order)))
        pass_id = len(traced)
        if workload.is_cli:
            part = args.trace_out.with_name(f"{args.trace_out.name}.pass{pass_id}")
            cmd = [sys.executable, str(Path(__file__).resolve()), "--mode", "cli-trace",
                   "--trace-out", str(part)]
            traced.append(guarded(lambda: cli_pass(reference, cmd)))
            if not part.exists():  # the traced child failed before writing
                traced[-1].ok = False
                continue
            data = json.loads(part.read_text())
            part.unlink()
            layer_runs.append(data["metrics"])
            spans.extend(dict(s, **{"pass": pass_id}) for s in data["spans"])
            missing.update(data["missing"])
        else:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(guarded(lambda: library_pass(verify, order, reference)))
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            metrics["cli.import_s"] = import_s
            layer_runs.append(metrics)
            spans.extend(tracer.span_records(pass_id))
            missing.update(tracer.missing)
    names = sorted({k for m in layer_runs for k in m})
    layers = {k: statistics.median(m.get(k, 0) for m in layer_runs) for k in names}
    untraced_s = statistics.median(p.wall_s for p in passes)
    layers["trace.overhead"] = (
        statistics.median(p.wall_s for p in traced) / untraced_s - 1 if untraced_s else 0.0
    )
    args.trace_out.write_text(json.dumps({"workload": workload.name, "layers": layers,
                                          "missing": sorted(missing), "spans": spans}))
    emit("result", passes=[asdict(p) for p in passes + traced], layers=layers,
         missing=sorted(missing), peak_rss_mb=peak_rss_mb(workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
