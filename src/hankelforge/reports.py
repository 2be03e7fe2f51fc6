"""Verification report containers shared by all claim harnesses.

A report records one status per checked index; a failing index also yields
a witness with the observed value and the violated condition.  Reports are
immutable and deterministic: same inputs, same entries in the same order.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReportEntry:
    index: str
    value: str
    status: str  # "pass" | "fail"


@dataclass(frozen=True)
class Witness:
    index: str
    observed: str
    expected: str


@dataclass(frozen=True)
class VerificationReport:
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


@dataclass
class ReportBuilder:
    """Accumulates entries and witnesses in evaluation order."""

    claim_id: str
    index_range: str
    experimental: bool = False
    _entries: list[ReportEntry] = field(default_factory=list)
    _witnesses: list[Witness] = field(default_factory=list)

    def check(self, index: str, value: object, ok: bool, expected: str) -> bool:
        value_s = str(value)
        self._entries.append(ReportEntry(index, value_s, "pass" if ok else "fail"))
        if not ok:
            self._witnesses.append(Witness(index, value_s, expected))
        return ok

    def merge(self, other: VerificationReport, prefix: str = "") -> None:
        for e in other.entries:
            self._entries.append(ReportEntry(prefix + e.index, e.value, e.status))
        for w in other.witnesses:
            self._witnesses.append(Witness(prefix + w.index, w.observed, w.expected))

    def build(self) -> VerificationReport:
        return VerificationReport(
            self.claim_id,
            self.index_range,
            tuple(self._entries),
            tuple(self._witnesses),
            self.experimental,
        )
