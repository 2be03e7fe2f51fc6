"""Verification report containers shared by all claim harnesses.

A report records one status per checked index; a failing index also yields
a witness with the observed value and the violated condition.  Reports,
entries and witnesses are named tuples: immutable, equal when their fields
are, and deterministic: same inputs, same entries in the same order.
:meth:`verify.Claim.run` is the one place that builds them.
"""
from __future__ import annotations

from typing import NamedTuple

# One check: (label, observed value, ok, expected condition).  The condition
# is kept only in a failing check's Witness, so a passing check may carry "".
Check = tuple[str, int, bool, str]


class ReportEntry(NamedTuple):
    index: str
    value: str
    status: str  # "pass" | "fail"


class Witness(NamedTuple):
    index: str
    observed: str
    expected: str


class VerificationReport(NamedTuple):
    claim_id: str
    index_range: str
    entries: tuple[ReportEntry, ...]
    witnesses: tuple[Witness, ...]
    experimental: bool = False

    @property
    def passed(self) -> bool:
        """True when at least one check ran and none failed."""
        return bool(self.entries) and not self.witnesses

    def totals(self) -> tuple[int, int]:
        """(pass count, fail count)."""
        fails = sum(1 for e in self.entries if e.status == "fail")
        return len(self.entries) - fails, fails
