"""Host-speed probe: the yardstick the end-to-end timings are scaled by.

Host speed on shared machines drifts between regimes tens of seconds
long (on a shared 2-vCPU Xeon virtual machine at 2.1 GHz, a fixed
Python loop took 53 to 88 ms per iteration depending on the regime, and
CPU time drifted with wall time).  A run of a few passes sees one regime, so raw host
seconds spread across runs by far more than any change worth detecting.

The benchmark therefore times a fixed pure-Python kernel of the same
kinds of work as the simulator (heap pushes and pops, slotted objects,
dict traffic, calls) between the commands of its passes, and reports
each command's host time scaled to the speed at which the probe takes
exactly :data:`REFERENCE_S`: ``seconds * REFERENCE_S / probe``, the
probe being the mean of the probes just before and just after the
command.  A pass's scaled time is the sum over its commands.  Probing
per command rather than per pass matters: on that machine, over 18
figure passes the run-to-run spread of 3-pass medians was 0.45 raw,
0.15 scaled per pass and 0.06 scaled per command.  Only workloads that
run on one CPU are scaled (``workloads.ONE_CPU``).  Host seconds are
printed beside every scaled value.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time
from typing import Dict, Hashable, List, Sequence, Tuple

__all__ = ["REFERENCE_S", "SpeedScale", "probe", "kernel", "KERNEL_CHECKSUM",
           "IMPORT_REFERENCE_S", "import_probe"]

#: Host seconds of one probe at the reference speed.
REFERENCE_S = 1.0

_ITERATIONS = 800_000

#: :func:`kernel`'s result; a different value means the kernel changed
#: and scaled timings are no longer comparable with earlier ones.
KERNEL_CHECKSUM = 319953225943


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def kernel(iterations: int = _ITERATIONS) -> int:
    """Deterministic work; returns a checksum of everything it did."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(iterations):
        item = _Item(i, i * 7 % 13)
        heapq.heappush(heap, (item.b, i, item))
        table[i % 977] = item
        if len(heap) > 64:
            _, _, old = heapq.heappop(heap)
            acc += old.a + table.get(old.a % 977, item).b
    return acc


def probe() -> float:
    """Host seconds of one :func:`kernel` run (checked)."""
    t0 = time.perf_counter()
    result = kernel()
    seconds = time.perf_counter() - t0
    if result != KERNEL_CHECKSUM:
        raise RuntimeError(f"speed probe checksum {result} != "
                           f"{KERNEL_CHECKSUM}")
    return seconds


class SpeedScale:
    """Scales timed segments by the probes taken around them.

    Callers report each timed segment (a command, or a command and the
    reaping after it) with :meth:`segment`; once ``every_s`` host seconds
    of segments have accumulated, a probe runs (outside every segment)
    and the pending segments are scaled by the mean of the probe before
    them and this one.  Totals are kept per sample key.
    """

    def __init__(self, every_s: float, probe_fn=None) -> None:
        self.every_s = every_s
        self._probe = probe_fn or probe
        self.probes: List[float] = [self._probe()]
        self.scaled: Dict[Hashable, List[float]] = {}
        self._pending: List[Tuple[Hashable, Sequence[float]]] = []
        self._pending_s = 0.0

    def segment(self, key: Hashable, values: Sequence[float]) -> None:
        """One segment of the sample ``key`` (a pass); ``values[0]`` is
        its wall time, which decides when the next probe is due."""
        self._pending.append((key, values))
        self._pending_s += values[0]
        if self._pending_s >= self.every_s:
            self.flush()

    def restart(self) -> None:
        """Probe afresh after untimed work, so the next segments are not
        scaled by a probe taken before it."""
        self.flush()
        self.probes.append(self._probe())

    def flush(self) -> None:
        """Probe now and scale every pending segment."""
        if not self._pending:
            return
        before, after = self.probes[-1], self._probe()
        self.probes.append(after)
        factor = REFERENCE_S * 2.0 / (before + after)
        for index, values in self._pending:
            totals = self.scaled.setdefault(index, [0.0] * len(values))
            for i, value in enumerate(values):
                totals[i] += value * factor
        self._pending.clear()
        self._pending_s = 0.0


# --------------------------------------------------------------------- #
#: Host seconds of one :func:`import_probe` at the reference speed.
IMPORT_REFERENCE_S = 0.2

#: Standard-library modules the import probe loads: enough pure-Python
#: module bodies to take about 0.15-0.2 s, none of them the program's.
_IMPORT_PROBE = (
    "asyncio", "email.message", "http.client", "decimal",
    "xml.etree.ElementTree", "unittest", "logging.handlers", "argparse",
    "json", "dataclasses", "typing", "concurrent.futures",
    "multiprocessing", "sqlite3", "zipfile", "tarfile", "csv",
    "fractions", "statistics", "inspect", "ast", "pydoc",
)


def import_probe() -> float:
    """Host seconds of a fresh interpreter importing a fixed set of
    standard-library modules.

    Set-up is a fresh interpreter importing modules, which the heap
    kernel above does not predict: scaled by :func:`probe`, twenty-four
    set-ups spread more (0.445-0.697 s) than in host seconds
    (0.499-0.688 s).
    Over sixteen set-ups each timed between two import probes, the
    quartile spread was 0.14 in host seconds and 0.05 as a ratio to the
    probes' mean (shared 2-vCPU Xeon virtual machine at 2.1 GHz).
    """
    argv = [sys.executable, "-c", "import " + ", ".join(_IMPORT_PROBE)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, timeout=60)
    return time.perf_counter() - t0
