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

# Integers of up to 600 digits go straight through ``str``: 600 is under the
# smallest digit limit an interpreter can be configured with (640).
_STR_BOUND = 10**600


def decimal_str(value: int) -> str:
    """Exact decimal digits of an integer of any size.

    ``str`` refuses integers above the interpreter's digit limit (4300 by
    default); larger ones are split by a power of ten and rendered piecewise,
    leaving process-wide settings alone.
    """
    if value < 0:
        return "-" + decimal_str(-value)
    if value < _STR_BOUND:
        return str(value)
    # about half the digit count (log10 2 > 3/10), so both pieces are nonzero
    half = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**half)
    return decimal_str(high) + decimal_str(low).zfill(half)


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
