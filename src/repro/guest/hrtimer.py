"""The guest's high-resolution timer.

The paper measures spinlock waiting times "by the high-resolution timer
provided by Linux" (Section 2.2).  In the simulator that timer is simply a
read of the global cycle clock — a paravirtualised guest's clocksource is
the host TSC, so guest hrtimer readings and VMM time agree, which is why
wall-clock spinlock waits (including time the VCPU spent offline) are what
the Monitoring Module sees.

Wrapping the read in a class keeps the measurement point explicit and lets
tests substitute a skewed timer to check the Monitoring Module's robustness
to clock granularity.
"""

from __future__ import annotations

from repro.sim.engine import Simulator


class Hrtimer:
    """Cycle-granularity guest clock."""

    __slots__ = ("_sim", "granularity")

    def __init__(self, sim: Simulator, granularity: int = 1) -> None:
        if granularity < 1:
            raise ValueError("granularity must be >= 1 cycle")
        self._sim = sim
        #: Reading quantum in cycles (1 = perfect TSC).
        self.granularity = granularity

    def read(self) -> int:
        """Current time in cycles, quantised to the timer granularity."""
        now = self._sim.now
        if self.granularity == 1:
            return now
        return now - (now % self.granularity)

    def elapsed(self, since: int) -> int:
        """Cycles elapsed since a previous :meth:`read` value."""
        return max(0, self.read() - since)
