"""Virtual machines and virtual CPUs.

A :class:`VCPU` is the schedulable entity.  From the VMM's point of view it
is in one of three states:

* ``RUNNING``  — currently occupying a PCPU ("online" in the paper's terms);
* ``RUNNABLE`` — sitting in some PCPU's run queue, waiting for time;
* ``BLOCKED``  — the guest has nothing to run on it (idle), so the VMM
  removed it from scheduling until the guest wakes it.

The guest OS hooks in through :class:`GuestClient`: the VMM calls
``on_online`` / ``on_offline`` when a VCPU gains or loses its PCPU, and the
guest calls :meth:`VCPU.block` / :meth:`VCPU.wake` when it idles or gets
work.  Scheduling policy lives entirely in :mod:`repro.vmm.scheduler_base`
and its subclasses; this module is pure mechanism.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional, Protocol

from repro.config import VMConfig
from repro.errors import SchedulerInvariantError
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.machine import PCPU
    from repro.vmm.scheduler_base import SchedulerBase


class VCPUState(enum.Enum):
    """VMM-visible VCPU states (see module docstring)."""

    RUNNING = "running"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"


class VCRD(enum.Enum):
    """VCPU Related Degree of a VM (paper Section 3.1).

    HIGH means an over-threshold spinlock was detected and the VM's VCPUs
    should be coscheduled; LOW means asynchronous scheduling is fine.
    """

    LOW = "low"
    HIGH = "high"


class GuestClient(Protocol):
    """What the VMM needs from a guest OS implementation."""

    def on_online(self, vcpu: "VCPU") -> None:
        """The VCPU just gained a PCPU; resume its current activity."""

    def on_offline(self, vcpu: "VCPU") -> None:
        """The VCPU just lost its PCPU; pause its current activity."""


class _NullGuest:
    """Placeholder guest for VMs created without an OS (e.g. Domain-0
    in single-VM experiments, which carries no workload)."""

    __slots__ = ()

    def on_online(self, vcpu: "VCPU") -> None:
        # An empty guest has nothing to run: block immediately so the VMM
        # does not waste PCPU time on it.
        vcpu.block()

    def on_offline(self, vcpu: "VCPU") -> None:
        pass


class VCPU:
    """One virtual CPU of one VM."""

    __slots__ = (
        "vm", "index", "name", "credit", "state", "pcpu", "home_pcpu_id", "boosted",
        "wake_boost", "parked",
        "online_cycles", "_online_since", "created_at", "_sim",
        "wait_cycles", "_runnable_since", "preemptions", "migrations",
        "wakes",
    )

    def __init__(self, vm: "VM", index: int, sim: Simulator) -> None:
        self.vm = vm
        self.index = index
        #: ``<vm>/v<index>``, built once: every ``sched.switch`` emits it.
        self.name = f"{vm.name}/v{index}"
        self._sim = sim
        self.credit: float = 0.0
        self.state = VCPUState.RUNNABLE
        #: PCPU currently occupied (only while RUNNING).
        self.pcpu: Optional["PCPU"] = None
        #: Which PCPU's run queue this VCPU belongs to.
        self.home_pcpu_id: int = 0
        #: Temporarily raised priority for IPI coscheduling (Algorithm 4).
        self.boosted = False
        #: Xen's BOOST priority: set when a blocked VCPU wakes with credit
        #: left, letting latency-sensitive VCPUs preempt CPU hogs.
        self.wake_boost = False
        #: Non-work-conserving cap enforcement: parked VCPUs are ineligible
        #: until a credit assignment finds them back in the black.
        self.parked = False
        self.online_cycles = 0
        self._online_since: Optional[int] = None
        self._runnable_since: Optional[int] = sim.now
        self.wait_cycles = 0
        self.created_at = sim.now
        self.preemptions = 0
        self.migrations = 0
        #: BLOCKED->RUNNABLE transitions; a VMM-visible proxy for guest
        #: sleep/wake churn (used by out-of-VM VCRD inference).
        self.wakes = 0

    # ------------------------------------------------------------------ #
    @property
    def is_online(self) -> bool:
        return self.state is VCPUState.RUNNING

    def online_rate(self, since: int = 0) -> float:
        """Measured fraction of time online since cycle ``since``."""
        total = self._sim.now - max(since, self.created_at)
        if total <= 0:
            return 0.0
        online = self.online_cycles
        if self._online_since is not None:
            online += self._sim.now - self._online_since
        return min(1.0, online / total)

    # ------------------------------------------------------------------ #
    # Transitions driven by the scheduler
    # ------------------------------------------------------------------ #
    def start_running(self, pcpu: "PCPU") -> None:
        if self.state is VCPUState.BLOCKED:
            raise SchedulerInvariantError(f"{self.name}: running a BLOCKED VCPU")
        if self.state is VCPUState.RUNNING:
            raise SchedulerInvariantError(f"{self.name}: already RUNNING")
        if self._runnable_since is not None:
            self.wait_cycles += self._sim.now - self._runnable_since
            self._runnable_since = None
        self.state = VCPUState.RUNNING
        self.pcpu = pcpu
        self._online_since = self._sim.now
        self.vm.guest.on_online(self)

    def stop_running(self) -> None:
        """Preempt: RUNNING -> RUNNABLE.  The guest activity is paused."""
        if self.state is not VCPUState.RUNNING:
            raise SchedulerInvariantError(f"{self.name}: not RUNNING")
        self._close_online_span()
        self.state = VCPUState.RUNNABLE
        self._runnable_since = self._sim.now
        self.pcpu = None
        self.preemptions += 1
        self.wake_boost = False
        self.vm.guest.on_offline(self)

    # ------------------------------------------------------------------ #
    # Transitions driven by the guest
    # ------------------------------------------------------------------ #
    def block(self) -> None:
        """The guest has nothing to run: give up the PCPU (or the runq slot).

        Called either from guest dispatch while RUNNING, or on a RUNNABLE
        VCPU whose last task blocked before it got scheduled again.
        """
        if self.state is VCPUState.BLOCKED:
            return
        was_running = self.state is VCPUState.RUNNING
        if was_running:
            self._close_online_span()
        self.state = VCPUState.BLOCKED
        self._runnable_since = None
        self.wake_boost = False
        self.vm.scheduler.on_vcpu_block(self, was_running)
        self.pcpu = None

    def wake(self) -> None:
        """The guest has work for a BLOCKED VCPU again."""
        if self.state is not VCPUState.BLOCKED or self.vm.destroyed:
            return
        self.state = VCPUState.RUNNABLE
        self._runnable_since = self._sim.now
        self.wakes += 1
        self.vm.scheduler.on_vcpu_wake(self)

    # ------------------------------------------------------------------ #
    def _close_online_span(self) -> None:
        if self._online_since is not None:
            self.online_cycles += self._sim.now - self._online_since
            self._online_since = None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<VCPU {self.name} {self.state.value} "
                f"credit={self.credit:.0f}>")


class VM:
    """A virtual machine: a named set of VCPUs plus scheduling metadata.

    The guest OS (:class:`repro.guest.kernel.GuestKernel`) is attached after
    construction via :meth:`attach_guest`; until then a null guest that
    blocks immediately is installed, which is exactly how the paper's idle
    Domain-0 behaves.
    """

    __slots__ = (
        "id", "config", "sim", "trace", "vcpus", "weight", "vcrd", "guest",
        "scheduler", "destroyed", "concurrent_hint", "vcrd_changes",
    )

    def __init__(self, vm_id: int, config: VMConfig, sim: Simulator,
                 trace: TraceBus) -> None:
        self.id = vm_id
        self.config = config
        self.sim = sim
        self.trace = trace
        self.vcpus: List[VCPU] = [VCPU(self, i, sim)
                                  for i in range(config.num_vcpus)]
        self.weight = config.weight
        self.vcrd = VCRD.LOW
        self.guest: GuestClient = _NullGuest()
        #: Set by the scheduler when the VM is registered.
        self.scheduler: "SchedulerBase" = None  # type: ignore[assignment]
        #: True once the VM has been destroyed (removed from scheduling);
        #: late guest timer wakes are ignored from then on.
        self.destroyed = False
        #: Static concurrent-VM mark used by the CON comparator scheduler.
        self.concurrent_hint = False
        #: Count of VCRD transitions (observability).
        self.vcrd_changes = 0

    @property
    def name(self) -> str:
        return self.config.name

    def set_vcrd(self, value: VCRD) -> None:
        """Update the VCRD; the Adaptive Scheduler reads it at scheduling
        events.  Emits a trace record on every actual change."""
        if value is self.vcrd:
            return
        self.vcrd = value
        self.vcrd_changes += 1
        self.trace.emit(self.sim.now, "vcrd.change",
                        vm=self.name, vcrd=value.value)
        if self.scheduler is not None:
            self.scheduler.on_vcrd_change(self)

    def online_vcpus(self) -> List[VCPU]:
        return [v for v in self.vcpus if v.is_online]

    def cpu_time(self) -> int:
        """Total online cycles consumed by this VM's VCPUs so far."""
        total = 0
        for v in self.vcpus:
            total += v.online_cycles
            if v._online_since is not None:
                total += self.sim.now - v._online_since
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return f"<VM {self.name} w={self.weight} vcrd={self.vcrd.value}>"
