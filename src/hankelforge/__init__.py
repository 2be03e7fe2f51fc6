"""Exact Hankel-type determinants and divisibility checks for binomial-sum
sequences.

The package generates seven families of combinatorial sequences in exact
arbitrary-precision arithmetic, evaluates Hankel determinants with three
independent engines, and machine-verifies a registry of divisibility,
parity, congruence, and positivity claims about them.
"""
from .exact import InexactDivisionError, exact_div
from .hankel import (
    DetResult,
    det_bareiss,
    det_dodgson,
    det_laplace,
    quotient_check,
)
from .reports import ReportEntry, VerificationReport, Witness
from .sequences import (
    Family,
    SequenceId,
    SequenceTerms,
    domb,
    franel,
    prefix,
    term,
)
from .transforms import (
    binomial_transform,
    iterated_transform,
)
from .verify import CLAIM_IDS, REGISTRY, run_all, run_claim

__version__ = "0.1.0"

__all__ = [
    "CLAIM_IDS",
    "DetResult",
    "Family",
    "InexactDivisionError",
    "REGISTRY",
    "ReportEntry",
    "SequenceId",
    "SequenceTerms",
    "VerificationReport",
    "Witness",
    "binomial_transform",
    "det_bareiss",
    "det_dodgson",
    "det_laplace",
    "domb",
    "exact_div",
    "franel",
    "iterated_transform",
    "prefix",
    "quotient_check",
    "run_all",
    "run_claim",
    "term",
    "__version__",
]
