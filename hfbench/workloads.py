"""The benchmark's workloads, their reference outputs and the speed probe.

A workload's inputs are fixed by the mathematics; the seed only shuffles the
order of the claims within a library pass.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``hfbench/README.md``.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# The verify-all pass, run as ``python -m hankelforge.cli <CLI_ARGS>``.
CLI_ARGS = ("verify", "--all", "--format", "csv")


@dataclass(frozen=True)
class Workload:
    name: str
    claims: tuple[tuple[str, int], ...] = ()  # (claim id, n_max); empty for the CLI

    @property
    def is_cli(self) -> bool:
        return not self.claims


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-all"),
        Workload("hankel-deep", (("hankel-franel", 50), ("hankel-domb-clf", 50), ("hankel-apery", 50))),
        Workload("parity-wide", (("parity-matrix-unimodular", 128),)),
        Workload(
            "claims-long",
            tuple(
                (cid, 600)
                for cid in (
                    "domb-mod3",
                    "apery-b-congruences",
                    "gessel-mod24",
                    "barrucand-identity",
                    "clf-doubling-identity",
                )
            ),
        ),
    )
}


def claim_key(claim_id: str, n_max: int) -> str:
    return f"{claim_id}@{n_max}"


def report_digest(report) -> str:
    """SHA-256 over every entry's (claim_id, index, value, status)."""
    h = hashlib.sha256()
    for e in report.entries:
        h.update(f"{report.claim_id}\t{e.index}\t{e.value}\t{e.status}\n".encode())
    return h.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


# -- speed probe ----------------------------------------------------------------
#
# On a shared virtual machine the speed of a core can change by half within
# seconds, as other tenants load the host.  Each timed segment is
# therefore run between two runs of a fixed pure-Python probe, and its time
# is also reported scaled to the speed at which the probe takes PROBE_REF_S.
# The probe mixes the package's two kinds of work: an interpreter loop over
# Pascal rows, and multiplication and division of ~10k-bit integers.  It does
# not import hankelforge, so no change to the package can move it.

PROBE_REF_S = 0.021
PROBE_REPEAT = 3
_BIG_A = 3**6000 + 1
_BIG_B = 7**2500 + 3


def _probe_once() -> int:
    row = [1]
    acc = 0
    for _ in range(300):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        acc += sum(c * c for c in row) % 1000003
    for i in range(60):
        acc ^= divmod(_BIG_A * (_BIG_A + i), _BIG_B)[1] & 0xFFFF
    return acc


def probe_s() -> float:
    """Median of PROBE_REPEAT probe runs, in seconds."""
    times = []
    for _ in range(PROBE_REPEAT):
        start = time.perf_counter()
        _probe_once()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
