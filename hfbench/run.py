#!/usr/bin/env python3
"""hankelforge benchmark: time a workload end to end, or trace its layers.

Run from the root of a hankelforge checkout:

  python3 hfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 hfbench/run.py --workload all [--seconds S] [--trace 0|1]
  python3 hfbench/run.py --compare OLD NEW
  python3 hfbench/run.py --record-reference

One client, closed loop: each pass starts when the previous one has ended.
Every set-up runs in a fresh interpreter (worker.py), SETUPS times with
--trace 0; the last of them goes on to the timed passes.  --trace 0 prints
the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics,
taken from traced passes that alternate with untraced ones.  The last line
of standard output is one JSON object; the run is also written to
hfbench/out/, and the spans of a traced run beside it.

--compare takes two result files or directories of them (runs with
--trace 0) and prints, per workload and end-to-end metric, both medians,
both quartile spreads, the ratio and a verdict against the metric's bound.

--record-reference rewrites hfbench/reference.json, the digests every pass
is checked against.  Run it only on a commit whose output is known right.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import compare
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SPEC_FILE = HERE.parent / "BENCHMARK.json"
SETUPS = 3
RUN_DEADLINE_S = 170
# Each of these makes the package a different program than the one users run.
FORBIDDEN_ENV = ("HF_BINOM_CACHE_MAX", "HF_PURE_PYTHON", "PYTHONINTMAXSTRDIGITS")


class BenchError(Exception):
    pass


class Worker:
    """A worker.py process whose JSON-line events are read as they arrive."""

    def __init__(self, root: Path, argv: list[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *argv], cwd=root, env=env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, start_new_session=True)
        self.events: dict[str, tuple[float, dict]] = {}
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                print(line, end="", file=sys.stderr)
                continue
            self.events[event.get("event")] = (time.perf_counter(), event)

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker ran past the run's deadline") from None
        finally:
            self._reader.join()
            self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def kill(self) -> None:
        # The worker's own children (verify-all passes) share its session.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def event(self, name: str) -> tuple[float, dict]:
        if name not in self.events:
            raise BenchError(f"worker sent no {name!r} event")
        return self.events[name]


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"p": int(100 * (n - 10) / n), "value": sorted(values)[n - 11], "n": n}


def git_stamp(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"{name}-seed{seed}.trace.json"
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace-out", str(trace_out)]
    setups = []
    count = 1 if trace else SETUPS
    for i in range(count):
        mode = "setup" if i < count - 1 else ("trace" if trace else "measure")
        probe = workloads.probe_s()
        worker = Worker(root, ["--mode", mode, *argv])
        try:
            worker.finish(deadline)
        finally:
            if worker.proc.returncode is None:
                worker.kill()
        ready_at, ready = worker.event("ready")
        warm = ready["warmup"]
        wall = ready_at - worker.spawned - warm["probe_s"]
        setups.append({
            "wall_s": wall,
            "scaled_s": (wall - warm["wall_s"]) * workloads.PROBE_REF_S / probe + warm["scaled_s"],
            "import_s": ready["import_s"],
            "warmup_ok": ready["warmup_ok"],
        })
    result = worker.event("result")[1]
    passes = result["passes"]
    failed = sum(not p["ok"] for p in passes)
    pass_s = median([p["scaled_s"] for p in passes])
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and all(s["warmup_ok"] for s in setups),
        "attempted": len(passes),
        "failed": failed,
        "stamp": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **ready["stamp"],
            **git_stamp(root),
        },
        "setups": setups,
        "passes": passes,
        "end_to_end": {
            "setup_s": median([s["scaled_s"] for s in setups]),
            "pass_s": pass_s,
            "checks_per_s": median([p["checks"] for p in passes]) / pass_s,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "wall": {
            "setup_s": median([s["wall_s"] for s in setups]),
            "pass_s": median([p["wall_s"] for p in passes]),
            "pass_s_tail": tail([p["wall_s"] for p in passes]),
            "import_s": median([s["import_s"] for s in setups]),
        },
    }
    if trace:
        record["per_layer"] = result["layers"]
        record["missing_wrap_points"] = result["missing"]
    return record


def metric_block(record: dict, spec: dict) -> dict:
    """The metrics of the result line, in BENCHMARK.json's names and units."""
    key = "per_layer" if record["trace"] else "end_to_end"
    values = record[key]
    block = {}
    for m in spec[key]:
        if key == "per_layer" and m["name"] not in values:
            value = 0  # a layer this workload never calls
        else:
            value = values[m["name"]]
        block[m["name"]] = {"value": value, "unit": m["unit"]}
    unknown = sorted(set(values) - set(block))
    if unknown:
        print(f"note: measured but not in BENCHMARK.json: {', '.join(unknown)}", file=sys.stderr)
    return block


def print_record(record: dict, block: dict) -> None:
    s = record["stamp"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python={s['python']} backend={s['backend']} nproc={s['nproc']} "
          f"commit={s['commit']} dirty={s['dirty']} binom_cache_limit={s['binom_cache_limit']} "
          f"int_max_str_digits={s['int_max_str_digits']}")
    for name, m in block.items():
        print(f"{record['workload']:12s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    w = record["wall"]
    t = w["pass_s_tail"]
    tail_s = f"p{t['p']} {t['value']:.4f} s" if t else "none (fewer than 11 passes)"
    print(f"{record['workload']:12s} ops {record['attempted']} ops_failed {record['failed']} "
          f"| unscaled wall: setup {w['setup_s']:.4f} s, pass median {w['pass_s']:.4f} s "
          f"over {record['attempted']} passes, tail {tail_s}, import {w['import_s']:.4f} s")


def check_environment(root: Path) -> None:
    set_vars = [v for v in FORBIDDEN_ENV if v in os.environ]
    if set_vars:
        raise SystemExit(f"error: refusing to run with {', '.join(set_vars)} set: "
                         "it changes the program under test")
    if not (root / "src" / "hankelforge" / "__init__.py").is_file():
        raise SystemExit(f"error: {root} is not a hankelforge checkout (no src/hankelforge)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    spec = json.loads(SPEC_FILE.read_text())

    if args.compare:
        return compare.main(*args.compare, spec)

    root = Path.cwd()
    check_environment(root)
    if args.record_reference:
        worker = Worker(root, ["--mode", "record"])
        worker.finish(time.perf_counter() + 600)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for name in names:
        try:
            record = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        block = metric_block(record, spec)
        print_record(record, block)
        summary[name] = {k: record[k] for k in ("correct", "attempted", "failed")}
        summary[name]["metrics"] = block
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
