"""Checked exact integer division, the exact decimal digits of an integer,
and the package's one rule for integer arguments: an ``int`` that is not a
bool (``isinstance`` would let one through), and a list or tuple of them;
anything else is a ValueError."""

# Integers of up to 600 digits go straight through ``str``: 600 is under the
# smallest digit limit an interpreter can be configured with (640).
_STR_BOUND = 10**600


class InexactDivisionError(ArithmeticError):
    """A division that should be exact left a remainder.

    Raised where integrality is a theorem (CLF summands, recurrence
    leading coefficients, fraction-free elimination steps), so hitting
    this signals an implementation bug, never bad input.
    """


def exact_int(value, what: str, low: int | None = None) -> int:
    """``value``, an ``int`` that is not a bool and is at least ``low``; a
    ValueError naming it ``what`` otherwise."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer")
    if low is not None and value < low:
        raise ValueError(f"{what} must be at least {low}")
    return value


def exact_ints(values, what: str):
    """``values``, a list or tuple whose entries all pass :func:`exact_int`;
    a ValueError naming them ``what`` otherwise.  The entries' types are read
    in one pass in C."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list or tuple")
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{what} must be exact integers")
    return values


def decimal_str(value: int) -> str:
    """Exact decimal digits of an integer of any size; a ValueError on what
    :func:`exact_int` refuses.

    ``str`` refuses integers above the interpreter's digit limit (4300 by
    default); larger ones are split by a power of ten and rendered piecewise,
    leaving process-wide settings alone.
    """
    if exact_int(value, "value") < 0:
        return "-" + decimal_str(-value)
    if value < _STR_BOUND:
        return str(value)
    # about half the digit count (log10 2 > 3/10), so both pieces are nonzero
    half = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**half)
    return decimal_str(high) + decimal_str(low).zfill(half)


def exact_div(num: int, den: int, context: str = "") -> int:
    """``num // den``, which must leave no remainder.  ``num`` and ``den``
    must pass :func:`exact_int`; a ``den`` of 0 raises ``//``'s
    ZeroDivisionError."""
    q, r = divmod(exact_int(num, "num"), exact_int(den, "den"))
    if r:
        where = f" in {context}" if context else ""
        raise InexactDivisionError(f"{decimal_str(num)} is not divisible by {decimal_str(den)}{where}")
    return q
