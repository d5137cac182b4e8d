"""Calls run in forked children: the one owner of fork, pipe and reap.

``can_fork`` decides whether any work may leave this process, and
``workers`` how many processes a plan of work may use. ``methods.run_plan``
is the one caller: it forks once per ``impute()`` call, one child per share
of the plan past the first, and nothing forks inside a child. Inside a
``children()`` block, ``spawn(fn, *args)`` forks a child that runs
``fn(*args)`` and sends back, through a pipe, its pickled return value or
the exception it raised; the child then leaves with ``os._exit`` and never
returns into the caller's code. ``Child.join`` reads that message, reaps the
child, and returns the value or re-raises the exception with its type and
message. Leaving the block by any exception, ``KeyboardInterrupt``
included, kills and reaps every child not yet joined. On Linux a child is
also SIGKILLed when its parent dies, so a parent ended by a signal, which
runs no Python cleanup, leaves no worker running.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager

_VALUE, _ERROR = b"\0", b"\1"

# prctl(PR_SET_PDEATHSIG, sig): the kernel sends ``sig`` to this process
# when its parent dies; Linux only
_PR_SET_PDEATHSIG = 1
_prctl = getattr(ctypes.CDLL(None), "prctl", None) if sys.platform.startswith("linux") else None
if _prctl is not None:
    _prctl.argtypes, _prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int


def can_fork() -> bool:
    """Whether work may run in forked children.

    Yes when ``os.fork`` exists, more than one CPU is usable and no other
    Python thread runs, since forking a threaded process can deadlock.
    """
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
        and len(os.sched_getaffinity(0)) > 1
    )


def workers() -> int:
    """Processes work may be spread over: the usable CPUs where ``can_fork``, else 1."""
    return len(os.sched_getaffinity(0)) if can_fork() else 1


def portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - not every exception round-trips
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _child(fd: int, parent: int, fn, args) -> None:
    """Body of a forked child: run ``fn``, send its value or its error, exit.

    ``parent`` is the forking process's pid: a child whose parent is
    already gone when its death signal is set leaves at once.
    """
    try:
        if _prctl is not None:
            _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        try:
            message = (_VALUE, pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL))
        except BaseException as exc:  # noqa: BLE001 - the parent re-raises it
            message = (_ERROR, pickle.dumps(portable(exc)))
        with open(fd, "wb") as fh:
            for part in message:
                fh.write(part)
    finally:
        os._exit(0)


class Child:
    """A forked child running one call; ``join`` once for its outcome."""

    def __init__(self, pid: int, fd: int):
        self.pid = pid
        self._fd = fd
        self._reaped = False

    def join(self):
        """The call's return value; its exception is re-raised here.

        Blocks until the child has sent its message, then reaps it.
        """
        with open(self._fd, "rb", closefd=False) as fh:
            tag = fh.read(1)
            try:
                body = pickle.load(fh) if tag in (_VALUE, _ERROR) else None
            except (EOFError, pickle.UnpicklingError):
                tag = b""
        self._reap(kill=False)
        if tag == _ERROR:
            raise body
        if tag != _VALUE:
            raise ChildProcessError(f"forked child {self.pid} ended without a result")
        return body

    def _reap(self, kill: bool) -> None:
        if self._reaped:
            return
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self._fd)
        self._reaped = True


@contextmanager
def children():
    """A block whose ``spawn(fn, *args) -> Child`` runs a call in a forked child.

    Every child not joined when the block ends, normally or by any
    exception, is killed and reaped before the block is left.
    """
    owner, started = os.getpid(), []

    def spawn(fn, *args) -> Child:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                _child(write_fd, owner, fn, args)
        except BaseException:
            os.close(read_fd)
            raise
        finally:
            os.close(write_fd)
        started.append(Child(pid, read_fd))
        return started[-1]

    try:
        yield spawn
    finally:
        if os.getpid() != owner:  # a child interrupted before reaching ``_child``
            os._exit(1)
        for child in started:
            child._reap(kill=True)
