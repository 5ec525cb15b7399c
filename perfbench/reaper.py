"""Child-process teardown: join, terminate survivors, confirm none left.

The supervised fabric shuts its pool down without waiting for the
workers, so they can outlive the command that started them by a few
hundred milliseconds.  The benchmark therefore joins every child after
each pass within a bounded wait; a child still alive after that is
terminated and counted as a failed operation.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import wait
from pathlib import Path
from typing import List, Tuple

__all__ = ["reap_children", "stop_resource_tracker", "live_children"]


def reap_children(timeout_s: float = 10.0) -> Tuple[int, int, float]:
    """Wait for every ``multiprocessing`` child of this process to end.

    Returns ``(ended, left, seconds)``: children that ended within
    ``timeout_s``, children still running then (terminated, and killed
    if need be), and the time the reaping took.

    An exit is seen on the child's sentinel, not through ``join``: the
    pool's own manager thread may reap the same child concurrently, and
    ``join`` in the losing thread returns with no exit code, as if the
    child were still running.  The function returns only after each
    child's exit status is collected, so its CPU time is in
    ``RUSAGE_CHILDREN``.
    """
    t0 = time.perf_counter()
    deadline = time.monotonic() + timeout_s
    children = multiprocessing.active_children()
    running = {proc.sentinel: proc for proc in children}
    while running and time.monotonic() < deadline:
        for sentinel in wait(list(running),
                             max(0.0, deadline - time.monotonic())):
            del running[sentinel]
    survivors = list(running.values())
    for proc in survivors:
        proc.terminate()
        if not wait([proc.sentinel], 2.0):
            proc.kill()
            wait([proc.sentinel], 2.0)
    for proc in children:
        while proc.exitcode is None and time.monotonic() < deadline + 5.0:
            proc.join(0.05)
    return (len(children) - len(survivors), len(survivors),
            time.perf_counter() - t0)


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for a spawn
    pool's semaphores (it would otherwise end only when we exit)."""
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def live_children(pid: int = 0) -> List[int]:
    """PIDs of the running (not zombie) direct children of ``pid``
    (default: this process), read from ``/proc``."""
    pid = pid or os.getpid()
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            out.append(int(entry.name))
    return out
