"""Work split between this process and one forked child.

``hankel.hankel_minors`` uses it for its minors runs, when those are large:
:func:`split_leading_minors` takes every step of the recursion on all the
runs at once, the process taking the positions l <= n of each run and the
child the rest, and the two exchange one message each way per step.  The
process's side is ``_kernels.leading_minors``, the driver of the in-process
route too.  ``hankel`` imports this module only when the runs are large
enough to fork, so the CLI's start-up does not load it.
"""
from __future__ import annotations

import os
import pickle
import select
import signal
import threading
from typing import Any, Callable, Sequence, TypeVar

from ._kernels import leading_minors, tau_step

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
    or the pickling of its result raised, as its last message and leaves by
    ``os._exit``: it never returns into the caller and never flushes the
    stdio it inherited.  This process reads that message once ``here`` has
    returned.  An exception from the child is raised here again with its
    type and message, and a child that leaves without it is a RuntimeError.
    When anything fails here, the child's result is not wanted: the child is
    killed.  The child is reaped before this returns or raises.

    While the child runs, a SIGTERM to this process that would meet the
    default handler kills and reaps the child first, and then ends this
    process by SIGTERM as the default would.  That handler is set only over
    the default: any other is left as it is.  SIGTERM is held back from
    just before the fork until the handler is set, so that none comes
    between them, and the child keeps the default.  The default is back
    when this returns or raises.
    """
    child_reads, parent_writes = os.pipe()
    parent_reads, child_writes = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGTERM,))
    try:
        pid = os.fork()
    except BaseException:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in (child_reads, parent_writes, parent_reads, child_writes):
            os.close(fd)
        raise
    if pid == 0:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(parent_reads)
            os.close(parent_writes)
            channel = Channel(child_reads, child_writes)
            try:
                result: Any = there(channel)
            except BaseException as exc:  # raised again in the parent
                result = exc
            try:
                channel.send(result)
            except Exception as exc:  # pickling the result failed, before any write
                channel.send(exc)
        finally:
            os._exit(0)
    terminate = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    if terminate:
        signal.signal(signal.SIGTERM, _ending_with(pid))
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    os.close(child_reads)
    os.close(child_writes)
    channel = Channel(parent_reads, parent_writes)
    try:
        try:
            mine = here(channel)
            theirs = channel.recv()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            channel.close()
            os.waitpid(pid, 0)
    finally:
        if terminate:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return mine, theirs


def _ending_with(pid: int) -> Callable[[int, Any], None]:
    """A SIGTERM handler that kills and reaps the child ``pid``, if it is
    still there, and then ends this process by SIGTERM."""
    def end(signum: int, frame: Any) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped already
            pass
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)

    return end


def split_leading_minors(runs: Sequence[Sequence[int]]) -> list[tuple[list[int], int, int]]:
    """``_kernels.leading_minors(runs)``, each run's same ``(minors, steps,
    max_bits)``, with one forked child taking part of every step of every
    run.

    Each run holds x_0..x_2n, with one n >= 2 for all (below, the child would
    have no position), and :func:`can_fork` holds: ``hankel.hankel_minors``,
    which picks this route, checks both.  Step k -> k+1 updates the positions
    l = k+1..2n-k-1, each from tau_k(l), tau_k(l+1), tau_{k-1}(l) and four
    scalars read at the left end (see ``_kernels.tau_step``).  This process
    takes the positions l <= n of every run and the child those above.  Per
    step, the child needs only each run's scalars, which it keeps up from this
    process's first two new entries, and this process needs only the child's
    first new entry, tau_{k+1}(n+1).  The runs go in lockstep: per step each
    side sends the other one message, with those entries of every run still
    going, before the rest of its step.  A run that meets a zero divisor leaves
    both sides' messages at the same step.  This process runs the in-process
    driver, ``_kernels.leading_minors``, given the child's channel, and the
    child :func:`_high_positions`, which sends each run's ``steps`` and
    ``max_bits`` home at the end.
    """
    mine, theirs = with_child(lambda child: leading_minors(runs, child),
                              lambda parent: _high_positions(runs, parent))
    return [(minors, steps + child_steps, max(max_bits, child_bits))
            for (minors, steps, max_bits), (child_steps, child_bits) in zip(mine, theirs)]


def _high_positions(runs: Sequence[Sequence[int]], parent: Channel) -> list[tuple[int, int]]:
    """The recursion at the positions l > n of every run; returns each run's
    ``(steps, max_bits)``."""
    n = len(runs[0]) // 2
    cur = [list(values[n + 1 :]) for values in runs]  # tau_k(l) for l = n+1..2n-k
    prev = [[0] * (n + 1) for _ in runs]  # tau_{k-1}(l) for l = n+1..2n-k+1
    # Delta_k, Delta_{k+1} = tau_k(k), tau_k(k+1) and tau_{k-1}(k), at k = 0
    scalars = [(1, values[0], values[1], 0) for values in runs]
    max_bits = [0] * len(runs)
    steps = [0] * len(runs)
    live = list(range(len(runs)))
    for k in range(n - 1):
        if k:
            for r, (minor, a) in zip(live, parent.recv()):
                _, divisor, c, _ = scalars[r]  # Delta_k = tau_{k-1}(k-1), tau_{k-1}(k)
                scalars[r] = divisor, minor, a, c
        live = [r for r in live if scalars[r][0]]
        if not live:
            break
        firsts = []
        for r in live:
            first, max_bits[r] = tau_step(zip(cur[r][:1], cur[r][1:2], prev[r][:1]),
                                          *scalars[r], max_bits[r])
            firsts += first
        parent.send(firsts)  # tau_{k+1}(n+1)
        for r, first in zip(live, firsts):
            rest, max_bits[r] = tau_step(zip(cur[r][1:-1], cur[r][2:], prev[r][1:]),
                                         *scalars[r], max_bits[r])
            prev[r], cur[r] = cur[r], [first] + rest
            steps[r] += len(cur[r])
    return [(steps[r], max_bits[r]) for r in range(len(runs))]
