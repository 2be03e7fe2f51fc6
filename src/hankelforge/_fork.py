"""A forked child that runs beside this process, and the channel between them.

:func:`with_child` runs one function here and another in a forked child,
each with its end of one :class:`Channel`, and reaps the child before it
returns or raises.  ``hankel.hankel_minors`` splits its minors recursion
this way when its runs are large and :func:`can_fork` holds.  It imports this
module only then, so that the CLI's start-up loads neither it nor ``signal``.
"""
from __future__ import annotations

import os
import pickle
import select
import signal
import threading
from typing import Any, Callable, TypeVar

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
