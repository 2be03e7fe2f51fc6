"""Checked exact integer division."""
from .reports import decimal_str


class InexactDivisionError(ArithmeticError):
    """A division that should be exact left a remainder.

    Raised where integrality is a theorem (CLF summands, recurrence
    leading coefficients, fraction-free elimination steps), so hitting
    this signals an implementation bug, never bad input.
    """


def exact_div(num: int, den: int, context: str = "") -> int:
    """``num // den``, which must leave no remainder.  A ``num`` or ``den``
    whose type is not ``int`` (a bool included) is a ValueError."""
    if type(num) is not int or type(den) is not int:  # isinstance would let a bool through
        raise ValueError("num and den must be exact integers")
    q, r = divmod(num, den)
    if r:
        where = f" in {context}" if context else ""
        raise InexactDivisionError(f"{decimal_str(num)} is not divisible by {decimal_str(den)}{where}")
    return q
