import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from tadualcv import forking

from conftest import assert_no_child_left


class Unpicklable(Exception):
    def __init__(self, message, handle):
        super().__init__(message)
        self.handle = handle


def test_child_returns_its_value_and_is_reaped():
    with forking.children() as spawn:
        child = spawn(lambda a, b: {"sum": a + b, "pid": os.getpid()}, 2, 3)
        out = child.join()
    assert out["sum"] == 5 and out["pid"] == child.pid != os.getpid()
    assert_no_child_left()


def test_an_exception_that_does_not_pickle_comes_back_named():
    def fail():
        raise Unpicklable("no way back", lambda: None)

    with forking.children() as spawn:
        child = spawn(fail)
        with pytest.raises(RuntimeError, match="^Unpicklable: no way back$"):
            child.join()
    assert_no_child_left()


def test_a_child_killed_before_it_answers_is_a_child_process_error():
    with forking.children() as spawn:
        child = spawn(lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(ChildProcessError, match="ended without a result"):
            child.join()
    assert_no_child_left()


def test_leaving_the_block_kills_children_not_joined():
    with pytest.raises(KeyError):
        with forking.children() as spawn:
            spawn(signal.pause)
            raise KeyError("here")
    assert_no_child_left()


_ORPHAN_SCRIPT = """
import signal
from tadualcv import forking

with forking.children() as spawn:
    print(spawn(signal.pause).pid, flush=True)
    signal.pause()
"""


def _running(pid):
    """Whether ``pid`` exists and is not a zombie, per ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_parent_ended_by_sigterm_leaves_no_worker_running():
    src = os.path.dirname(os.path.dirname(os.path.abspath(forking.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT], stdout=subprocess.PIPE, env=env, text=True
    )
    pid = None
    try:
        with parent.stdout:
            pid = int(parent.stdout.readline())
        parent.send_signal(signal.SIGTERM)
        assert parent.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 5.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(pid), f"worker {pid} outlived its parent"
    finally:
        parent.kill()
        parent.wait()
        if pid is not None and _running(pid):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
