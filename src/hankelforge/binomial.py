"""Pascal-triangle rows, built on demand.

Nothing is cached.  Callers that need consecutive rows walk them with
:func:`rows`, which builds each row from the one before by addition.
"""
from __future__ import annotations

from operator import add
from typing import Iterator


def rows(count: int) -> Iterator[tuple[int, ...]]:
    """Pascal rows ``0..count-1`` in order, each built from the previous one."""
    cur: tuple[int, ...] = (1,)
    for _ in range(count):
        yield cur
        cur = (1, *map(add, cur, cur[1:]), 1)
