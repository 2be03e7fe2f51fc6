"""Work split between this process and one forked child.

The Hankel claims in ``verify`` use it in two ways.  :func:`split_map` deals
a claim's independent minors runs into two shares, one for each process.
:func:`split_leading_minors` divides one minors run that outweighs all the
others: each step of the recursion is taken by position, the process taking
the positions l <= n and the child the rest, and the two exchange a few
entries per step.  ``verify`` imports this module only when a claim's runs
are large enough to fork, so the CLI's start-up does not load it.
"""
from __future__ import annotations

import os
import pickle
import select
import signal
import threading
from typing import Any, Callable, Sequence, TypeVar

from ._kernels import hankel_leading_minors, tau_step

A = TypeVar("A")
T = TypeVar("T")
U = TypeVar("U")


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


class Channel:
    """One process's end of the two pipes between it and the other process.

    Objects go through whole, pickled and framed by their length.  A send
    never waits on the other process while that one is sending too: when
    the outgoing pipe is full, what the other process wrote is read into an
    inbox meanwhile, so two messages wider than a pipe buffer can cross.
    ``recv`` raises an exception object it receives, and end of file, when
    the other process left without sending what was awaited, is a
    RuntimeError.  A send to a process that has left is dropped: the next
    ``recv`` says why it left.
    """

    def __init__(self, read_fd: int, write_fd: int) -> None:
        self._read_fd = read_fd
        self._write_fd = write_fd
        os.set_blocking(write_fd, False)
        self._inbox = bytearray()
        self._eof = False

    def send(self, obj: Any) -> None:
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        out = memoryview(len(data).to_bytes(8, "little") + data)
        while out:
            try:
                out = out[os.write(self._write_fd, out):]
                continue
            except BlockingIOError:  # the pipe is full
                pass
            except BrokenPipeError:
                return
            ready = select.poll()
            ready.register(self._write_fd, select.POLLOUT)
            if not self._eof:
                ready.register(self._read_fd, select.POLLIN)
            if any(fd == self._read_fd for fd, _ in ready.poll()):
                self._read(1 << 16)

    def recv(self) -> Any:
        inbox = self._inbox
        while True:
            need = 8
            if len(inbox) >= need:
                need += int.from_bytes(inbox[:8], "little")
                if len(inbox) >= need:
                    obj = pickle.loads(inbox[8:need])
                    del inbox[:need]
                    if isinstance(obj, BaseException):
                        raise obj
                    return obj
            if self._eof or not self._read(max(need - len(inbox), 1 << 16)):
                raise RuntimeError("the forked child ended without a result")

    def _read(self, size: int) -> bool:
        chunk = os.read(self._read_fd, size)
        self._inbox += chunk
        self._eof = not chunk
        return bool(chunk)

    def close(self) -> None:
        os.close(self._read_fd)
        os.close(self._write_fd)


def with_child(here: Callable[[Channel], T], there: Callable[[Channel], U]) -> tuple[T, U]:
    """``(here(channel), there(channel))``, with ``there`` run in a forked
    child meanwhile; each gets its end of one :class:`Channel` to the other.

    When ``there`` returns, the child sends its result, or the exception it
    raised, as its last message and leaves by ``os._exit``: it never returns
    into the caller and never flushes the stdio it inherited.  This process
    reads that message once ``here`` has returned.  An exception from the
    child is raised here again with its type and message, and a child that
    leaves without it is a RuntimeError.  When anything fails here, the
    child's result is not wanted: the child is killed.  The child is reaped
    before this returns or raises.
    """
    child_reads, parent_writes = os.pipe()
    parent_reads, child_writes = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (child_reads, parent_writes, parent_reads, child_writes):
            os.close(fd)
        raise
    if pid == 0:
        try:
            os.close(parent_reads)
            os.close(parent_writes)
            channel = Channel(child_reads, child_writes)
            try:
                result: Any = there(channel)
            except BaseException as exc:  # raised again in the parent
                result = exc
            channel.send(result)
        finally:
            os._exit(0)
    os.close(child_reads)
    os.close(child_writes)
    channel = Channel(parent_reads, parent_writes)
    try:
        mine = here(channel)
        theirs = channel.recv()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        channel.close()
        os.waitpid(pid, 0)
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
    mine, theirs = with_child(lambda _: run(heavy), lambda _: run(light))
    results = dict(zip(heavy, mine)) | dict(zip(light, theirs))
    return [results[i] for i in range(len(items))]


def split_leading_minors(values: Sequence[int]) -> tuple[list[int], int, int, bool]:
    """``hankel_leading_minors(values)``, the same ``(minors, steps,
    max_bits, ok)``, with a forked child taking part of every step.

    ``values`` holds x_0..x_2n.  Step k -> k+1 updates the positions
    l = k+1..2n-k-1, each from tau_k(l), tau_k(l+1), tau_{k-1}(l) and four
    scalars read at the left end (see ``_kernels.tau_step``).  This process
    takes the positions l <= n and the child those above.  Per step, the
    child needs only the scalars, which it keeps up from this process's
    first two new entries, and this process needs only the child's first
    new entry, tau_{k+1}(n+1).  Each side sends what the other needs before
    the rest of its step.  The child sends its ``steps`` and ``max_bits``
    home at the end, and both stop at the same zero divisor.  Below n = 2
    the child would have no position, so the kernel runs here alone, as it
    does when :func:`can_fork` does not hold and on an even count of values,
    which it refuses.
    """
    if len(values) < 5 or len(values) % 2 == 0 or not can_fork():
        return hankel_leading_minors(values)
    (minors, steps, max_bits, ok), (child_steps, child_bits) = with_child(
        lambda child: _low_positions(values, child),
        lambda parent: _high_positions(values, parent))
    return minors, steps + child_steps, max(max_bits, child_bits), ok


def _low_positions(values: Sequence[int],
                   child: Channel) -> tuple[list[int], int, int, bool]:
    """The recursion at the positions l <= n, where the minors are; returns
    the kernel's tuple, with this process's ``steps`` and ``max_bits``."""
    n = len(values) // 2
    cur = list(values[: n + 2])  # tau_k(l) for l = k..n+1; the last is the child's
    prev = [0] * (n + 2)  # tau_{k-1}(l) for l = k-1..n
    divisor = 1  # Delta_k
    max_bits = max(x.bit_length() for x in values)
    steps = 0
    minors = [cur[0]]
    for k in range(n):
        if not divisor:
            return minors, steps, max_bits, False
        minor, a, c = cur[0], cur[1], prev[1]
        h = min(3, len(cur) - 1)  # positions k+1, k+2 (or the one left) go first
        head, max_bits = tau_step(zip(cur[1:h], cur[2 : h + 1], prev[2 : h + 1]),
                                  divisor, minor, a, c, max_bits)
        if k < n - 2:
            child.send(head)  # tau_{k+1}(k+1), tau_{k+1}(k+2): the child's step k+1 scalars
        rest, max_bits = tau_step(zip(cur[h:-1], cur[h + 1 :], prev[h + 1 :]),
                                  divisor, minor, a, c, max_bits)
        nxt = head + rest
        steps += len(nxt)
        if k < n - 1:
            nxt.append(child.recv())  # tau_{k+1}(n+1)
        prev, cur, divisor = cur, nxt, minor
        minors.append(cur[0])
    return minors, steps, max_bits, True


def _high_positions(values: Sequence[int], parent: Channel) -> tuple[int, int]:
    """The recursion at the positions l > n; returns ``(steps, max_bits)``."""
    n = len(values) // 2
    cur = list(values[n + 1 :])  # tau_k(l) for l = n+1..2n-k
    prev = [0] * (n + 1)  # tau_{k-1}(l) for l = n+1..2n-k+1
    # Delta_k, Delta_{k+1} = tau_k(k), tau_k(k+1) and tau_{k-1}(k) at k = 0
    divisor, minor, a, c = 1, values[0], values[1], 0
    max_bits = steps = 0
    for k in range(n - 1):
        if k:
            divisor, c = minor, a  # Delta_k = tau_{k-1}(k-1), tau_{k-1}(k)
            minor, a = parent.recv()
        if not divisor:
            break
        first, max_bits = tau_step(zip(cur[:1], cur[1:2], prev[:1]),
                                   divisor, minor, a, c, max_bits)
        parent.send(first[0])  # tau_{k+1}(n+1)
        rest, max_bits = tau_step(zip(cur[1:-1], cur[2:], prev[1:]),
                                  divisor, minor, a, c, max_bits)
        prev, cur = cur, first + rest
        steps += len(cur)
    return steps, max_bits
