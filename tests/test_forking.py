import os
import signal

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
