"""Guest tasks (threads/processes) and their execution state.

A :class:`Task` carries its program iterator, a queue of pending micro-steps
(the kernel's expansion of the current op), and at most one in-flight timed
:class:`Activity` (a compute burst or a futex spin phase).  Activities are
pausable: when the VMM deschedules the VCPU, the kernel cancels the
completion event and banks the consumed cycles; when the VCPU comes back
online the activity is re-armed with the remainder.  A *spinning* task has
no activity — it burns whatever CPU its VCPU gets until the lock is granted,
which is exactly the pathology the paper measures.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.errors import GuestStateError
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.ops import Program
    from repro.guest.spinlock import SpinLock
    from repro.vmm.vm import VCPU

MicroStep = Callable[["Task"], str]
"""A micro-step: runs one primitive and returns an ExecStatus constant."""

#: ExecStatus values returned by micro-steps.
CONTINUE = "continue"   # step finished synchronously; run the next one
WAIT = "wait"           # task is waiting (spinning / blocked / timed)


class TaskState(enum.Enum):
    """Guest-visible task states (see module docstring)."""

    READY = "ready"          # runnable, waiting for its VCPU slot
    RUNNING = "running"      # current task of its VCPU
    SPINNING = "spinning"    # busy-waiting on a spinlock (occupies the VCPU)
    BLOCKED = "blocked"      # descheduled inside the guest (sem/futex)
    DONE = "done"            # program exhausted


class Activity:
    """A pausable timed burst of CPU work.

    ``on_complete`` fires when the full ``remaining`` budget has been
    consumed while online; pausing/resuming preserves the budget.
    """

    __slots__ = ("remaining", "total", "on_complete", "started_at", "event")

    def __init__(self, cycles: int, on_complete: Callable[[], None]) -> None:
        self.remaining = int(cycles)
        self.total = int(cycles)
        self.on_complete = on_complete
        self.started_at: Optional[int] = None
        self.event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self.event is not None and self.event.pending

    def pause(self, now: int) -> None:
        if self.started_at is None:
            return
        consumed = now - self.started_at
        self.remaining = max(0, self.remaining - consumed)
        self.started_at = None
        if self.event is not None:
            self.event.cancel()
            self.event = None


class Task:
    """One guest thread/process."""

    __slots__ = ("name", "program", "vcpu", "daemon", "state", "micro",
                 "activity", "spin_lock", "spin_since", "spin_flag",
                 "locks_held", "ran_since_dispatch", "ops_completed",
                 "compute_cycles_done", "finished_at", "compute_label",
                 "sleep_label", "on_compute_done", "act_spare", "mpop", "pnext", "runq")

    def __init__(self, name: str, program: "Program", vcpu: "VCPU",
                 daemon: bool = False) -> None:
        self.name = name
        self.program = program
        #: Home VCPU; tasks are pinned (OpenMP-style affinity).
        self.vcpu = vcpu
        #: Daemon (kernel housekeeping) tasks run with priority, never
        #: count toward workload completion, and typically never finish.
        self.daemon = daemon
        self.state = TaskState.READY
        self.micro: Deque[MicroStep] = deque()
        #: Hot-dispatch aliases: micro and program are fixed for the
        #: task's lifetime (only mutated in place), so their bound
        #: methods are hoisted here once instead of per dispatch.
        self.mpop = self.micro.popleft
        self.pnext = program.__next__
        #: Home run queue, assigned by the kernel at spawn (the VCPU
        #: pinning makes it constant too).
        self.runq: Optional[Deque["Task"]] = None
        self.activity: Optional[Activity] = None
        #: The spinlock this task is currently spinning on, if any.
        self.spin_lock: Optional["SpinLock"] = None
        #: Cycle at which the current spinlock wait began.
        self.spin_since: Optional[int] = None
        #: Userspace flag spin: (FlagVar, target value) while flag-waiting.
        self.spin_flag = None
        #: Number of spinlocks currently held (preemption-disable depth).
        self.locks_held = 0
        #: Online cycles consumed since last guest dispatch (for rotation).
        self.ran_since_dispatch = 0
        #: Statistics.
        self.ops_completed = 0
        self.compute_cycles_done = 0
        self.finished_at: Optional[int] = None
        #: Event label for this task's compute bursts, built once — the
        #: kernel arms one event per burst, so per-arm formatting adds up.
        self.compute_label = "compute:" + name
        #: Event label for this task's sleep wakes, built once likewise.
        self.sleep_label = "sleep:" + name
        #: Default activity-completion callback, installed by the kernel
        #: on first use (one closure per task, not per burst).
        self.on_compute_done: Optional[Callable[[], None]] = None
        #: Retired Activity available for reuse.  A task runs at most one
        #: activity at a time and nothing retains one past completion, so
        #: the kernel's fast dispatch recycles the object (fully re-
        #: initialised) instead of allocating per burst.
        self.act_spare: Optional[Activity] = None

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.state is TaskState.DONE

    @property
    def at_op_boundary(self) -> bool:
        """True when the task sits between program ops (safe guest
        preemption point: no micro-steps pending, no locks held)."""
        return not self.micro and self.locks_held == 0

    def push_micro(self, *steps: MicroStep) -> None:
        """Queue micro-steps to run next (in the given order)."""
        if len(steps) == 1:  # the dominant case: a single compute step
            self.micro.appendleft(steps[0])
            return
        for step in reversed(steps):
            self.micro.appendleft(step)

    def next_micro(self) -> Optional[MicroStep]:
        return self.micro.popleft() if self.micro else None

    def require_state(self, *allowed: TaskState) -> None:
        if self.state not in allowed:
            raise GuestStateError(
                f"task {self.name} is {self.state}, expected one of "
                f"{[s.value for s in allowed]}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Task {self.name} {self.state.value}>"
