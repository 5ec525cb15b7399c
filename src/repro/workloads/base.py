"""Workload abstraction and common helpers.

A :class:`Workload` knows how to *install* itself into a guest kernel:
declare the synchronisation objects it needs and spawn its task programs.
Everything after that is emergent from the guest/VMM interaction — the
workload never talks to the scheduler.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.guest.kernel import GuestKernel


def jittered(rng: np.random.Generator, mean: float, cv: float) -> int:
    """Draw a positive work amount with the given mean and coefficient of
    variation, using a gamma distribution (mean-preserving, right-skewed —
    a reasonable model for compute-segment lengths).

    ``cv = 0`` returns the mean exactly, making programs deterministic.
    """
    if mean <= 0:
        return 0
    if cv <= 0:
        return int(mean)
    shape = 1.0 / (cv * cv)
    scale = mean * cv * cv
    return max(1, int(rng.gamma(shape, scale)))


class JitteredStream:
    """Batched :func:`jittered` draws for one fixed ``(mean, cv)`` pair.

    Hot program generators (NAS threads) draw thousands of gamma variates
    with constant parameters from a *private* per-thread RNG.  NumPy's
    fixed-parameter batch ``rng.gamma(shape, scale, size=n)`` consumes
    the bit stream exactly as ``n`` successive scalar calls do, so
    refilling a buffer per ``n`` draws returns the identical value
    sequence at a fraction of the per-call overhead.  Because the RNG is
    private to the thread, drawing the batch ahead of need (overdraw at
    program end) cannot perturb any other stream.  The degenerate
    parameter cases mirror :func:`jittered` without touching the RNG.
    """

    __slots__ = ("_rng", "_mean", "_cv", "_shape", "_scale",
                 "_buf", "_idx", "_batch")

    def __init__(self, rng: np.random.Generator, mean: float, cv: float,
                 batch: int = 256) -> None:
        self._rng = rng
        self._mean = mean
        self._cv = cv
        self._shape = 1.0 / (cv * cv) if cv > 0 else 0.0
        self._scale = mean * cv * cv
        self._buf = None
        self._idx = 0
        self._batch = batch

    def draw(self) -> int:
        """One :func:`jittered`-identical variate."""
        if self._mean <= 0:
            return 0
        if self._cv <= 0:
            return int(self._mean)
        buf = self._buf
        idx = self._idx
        if buf is None or idx >= len(buf):
            # astype(int64) truncates toward zero exactly as jittered's
            # int(); tolist() yields plain Python ints so each draw is a
            # list index, not a numpy-scalar conversion.
            buf = self._buf = self._rng.gamma(
                self._shape, self._scale,
                size=self._batch).astype(np.int64).tolist()
            idx = 0
        self._idx = idx + 1
        v = buf[idx]
        return v if v >= 1 else 1


class Workload(abc.ABC):
    """Base class for installable workloads.

    Workloads may run for several *rounds* (repetitions of the whole
    program).  The paper's multi-VM experiments run every benchmark
    "repeatedly with a batch program" and average the first rounds' run
    times while all neighbours are still loaded (Section 5.3); the round
    bookkeeping here supports exactly that measurement.
    """

    #: Human-readable name, set by subclasses.
    name: str = "workload"

    def __init__(self, rounds: int = 1) -> None:
        if rounds < 1:
            raise WorkloadError("rounds must be >= 1")
        self._kernel: Optional[GuestKernel] = None
        self.rounds = rounds
        #: round_times[thread] = [completion cycle of round 0, 1, ...].
        self.round_times: Dict[int, list] = {}
        self._round_callbacks: List[Callable[[], None]] = []

    @abc.abstractmethod
    def install(self, kernel: GuestKernel, rng: np.random.Generator) -> None:
        """Declare sync objects and spawn tasks into ``kernel``."""

    # -- round bookkeeping --------------------------------------------- #
    def _note_round(self, thread: int) -> None:
        """Programs call this (via closure) as each round completes."""
        self.round_times.setdefault(thread, []).append(self.kernel.sim.now)
        for cb in self._round_callbacks:
            cb()

    def on_round(self, callback: Callable[[], None]) -> None:
        """Register a callback fired each time any thread completes a
        round — the only moment :meth:`rounds_completed` can change."""
        self._round_callbacks.append(callback)

    def rounds_completed(self) -> int:
        """Rounds finished by *every* thread so far."""
        if not self.round_times:
            return 0
        threads = len(self.round_times)
        expected = getattr(self, "_expected_threads", threads)
        if threads < expected:
            return 0
        return min(len(v) for v in self.round_times.values())

    def round_complete_time(self, round_idx: int) -> int:
        """Cycle at which all threads had finished round ``round_idx``."""
        if self.rounds_completed() <= round_idx:
            raise WorkloadError(
                f"round {round_idx} of {self.name} not complete")
        return max(v[round_idx] for v in self.round_times.values())

    def mean_round_cycles(self, rounds: Optional[int] = None) -> float:
        """Average per-round duration over the first ``rounds`` completed
        rounds (default: all completed)."""
        done = self.rounds_completed()
        if done == 0:
            raise WorkloadError(f"{self.name}: no complete rounds")
        n = done if rounds is None else min(rounds, done)
        total = self.round_complete_time(n - 1)
        return total / n

    # ------------------------------------------------------------------ #
    def _mark_installed(self, kernel: GuestKernel) -> None:
        if self._kernel is not None:
            raise WorkloadError(
                f"workload {self.name} already installed "
                f"in {self._kernel.vm.name}")
        self._kernel = kernel

    @property
    def kernel(self) -> GuestKernel:
        if self._kernel is None:
            raise WorkloadError(f"workload {self.name} not installed")
        return self._kernel

    @property
    def installed(self) -> bool:
        return self._kernel is not None

    @property
    def finished(self) -> bool:
        return self.installed and self.kernel.finished

    def runtime_cycles(self) -> int:
        """Completion time (cycles since t=0).  Raises if unfinished."""
        k = self.kernel
        if k.finished_at is None:
            raise WorkloadError(f"workload {self.name} has not finished")
        return k.finished_at

    def describe(self) -> Dict[str, object]:
        """Metadata for experiment reports; subclasses extend."""
        return {"name": self.name}
