"""Independent calls split between this process and one forked child.

The Hankel claims in ``verify`` run their independent minors runs through
:func:`split_map`, so that large ones take two CPUs.  ``verify`` imports this
module only when a claim's runs are large enough to fork, so the CLI's
start-up does not load it.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, Sequence, TypeVar

A = TypeVar("A")
T = TypeVar("T")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def can_fork() -> bool:
    """A forked child can run beside this process: there is ``os.fork``, a
    second usable CPU, and no other thread (a fork copies only the calling
    thread, so locks the others hold would stay held in the child)."""
    return hasattr(os, "fork") and threading.active_count() == 1 and usable_cpus() >= 2


def with_child(here: Callable[[], T], there: Callable[[], T]) -> tuple[T, T]:
    """``(here(), there())``, with ``there`` run in a forked child meanwhile.

    The child sends ``pickle.dumps`` of its result, or of the exception it
    raised, through a pipe and leaves by ``os._exit``: it never returns into
    the caller and never flushes the stdio it inherited.  A child that
    leaves without a payload is a RuntimeError here.  The pipe is read
    before the child is reaped, because a payload larger than the pipe
    buffer blocks the child until it is read.  An exception from the child
    is raised here again with its type and message.  When ``here`` fails,
    the child's result is not wanted: the pipe is closed and the child is
    killed and reaped.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                result = there()
            except BaseException as exc:  # raised again in the parent
                result = exc
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result))
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            mine = here()
            payload = pipe.read()
        except BaseException:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("the forked child ended without a result")
    theirs = pickle.loads(payload)
    if isinstance(theirs, BaseException):
        raise theirs
    return mine, theirs


def split_map(fn: Callable[[A], T], items: Sequence[A], costs: Sequence[int],
              min_cost: int) -> list[T]:
    """``[fn(x) for x in items]``, split between this process and one forked
    child when that pays.

    The items are dealt largest cost first to whichever of two shares costs
    less so far.  When the lighter share costs at least ``min_cost`` and
    :func:`can_fork` holds, a forked child maps it while this process maps
    the other; otherwise everything runs here.  The results come back in the
    order of ``items`` either way.
    """
    def load(share: list[int]) -> int:
        return sum(costs[i] for i in share)

    def run(share: Sequence[int]) -> list[T]:
        return [fn(items[i]) for i in share]

    shares: tuple[list[int], list[int]] = ([], [])
    for i in sorted(range(len(items)), key=costs.__getitem__, reverse=True):
        min(shares, key=load).append(i)
    heavy, light = sorted(shares, key=load, reverse=True)
    if load(light) < min_cost or not can_fork():
        return run(range(len(items)))
    mine, theirs = with_child(lambda: run(heavy), lambda: run(light))
    results = dict(zip(heavy, mine)) | dict(zip(light, theirs))
    return [results[i] for i in range(len(items))]
