"""The child reaper: ended children are joined, survivors terminated."""

import multiprocessing
import time

from reaper import live_children, reap_children, stop_resource_tracker


def _start(seconds):
    proc = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(seconds,))
    proc.start()
    return proc


def test_child_that_ends_is_joined_not_counted():
    proc = _start(0)
    ended, left, _ = reap_children(timeout_s=30)
    assert (ended, left) == (1, 0)
    assert proc.exitcode == 0


def test_survivor_is_terminated_and_counted():
    proc = _start(60)
    t0 = time.monotonic()
    ended, left, seconds = reap_children(timeout_s=0.5)
    assert (ended, left) == (0, 1)
    assert not proc.is_alive() and proc.exitcode is not None
    assert seconds < 10 and time.monotonic() - t0 < 10


def test_nothing_left_after_teardown():
    _start(0)
    reap_children(timeout_s=30)
    stop_resource_tracker()
    assert live_children() == []
