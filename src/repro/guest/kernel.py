"""The guest SMP kernel: task dispatch, synchronisation, VMM interaction.

One :class:`GuestKernel` runs inside each VM.  It implements:

* **per-VCPU task scheduling** — tasks are pinned to a home VCPU
  (OpenMP-style affinity); when several tasks share a VCPU they rotate at
  op boundaries after a guest timeslice, and a VCPU with nothing runnable
  blocks to the VMM (which is why semaphore-heavy workloads behave well
  under virtualization, Section 2.2);
* **spinlock execution** — contended acquisitions put the task in a
  SPINNING state that *occupies the VCPU*, burning real scheduled time; on
  release the lock is granted to the oldest waiter that is online right
  now; waiters whose VCPU is offline keep accruing wall-clock wait and
  retry when they come back online (the lock-holder-preemption mechanics);
* **futex / barrier execution** — spin-then-block waits whose kernel side
  serialises through the futex bucket spinlock;
* **instrumentation** — every spinlock acquisition's wall-clock wait (as
  the guest hrtimer measures it) is recorded and handed to the Monitoring
  Module when one is installed (the paper's in-kernel probe).

Execution model
---------------
Each op from the workload program expands into *micro-steps* (callables).
A dispatch loop runs micro-steps until one of them starts a timed activity
(compute / futex spin), starts spinning on a lock, or blocks the task.
Timed activities are pausable across VCPU preemption.  All the waiting
logic lives here rather than in the primitive objects so that the
primitives stay simple, independently testable state machines.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappush
from typing import Callable, Deque, Dict, List, Optional

from repro.config import GuestConfig
from repro.errors import GuestStateError, WorkloadError
from repro.guest.barrier import Barrier
from repro.guest.flags import FlagVar
from repro.guest.futex import FutexQueue
from repro.guest.hrtimer import Hrtimer
from repro.guest.ops import (BarrierOp, Compute, Critical, FlagSet, FlagWait,
                             Op, Program, SemDown, SemUp, Sleep)
from repro.guest.semaphore import Semaphore
from repro.guest.spinlock import SpinLock
from repro.guest.task import (CONTINUE, WAIT, Activity, MicroStep, Task,
                              TaskState)
from repro.sim.engine import Event, Simulator
from repro.sim.fastforward import fastforward_enabled
from repro.sim.tracing import TraceBus
from repro.vmm.vm import VCPU, VM

#: Cap on the constant-hold micro-step cache: holds are config constants
#: (critical sections, futex buckets), so a workload drawing *varying*
#: holds must not grow the cache without bound.
_HOLD_CACHE_MAX = 64


class GuestKernel:
    """The guest operating system of one VM."""

    def __init__(self, vm: VM, sim: Simulator, trace: TraceBus,
                 config: Optional[GuestConfig] = None,
                 rng=None) -> None:
        self.vm = vm
        self.sim = sim
        self.trace = trace
        self.config = config or vm.config.guest
        self.hrtimer = Hrtimer(sim)
        self._rng = rng
        vm.guest = self

        self.tasks: List[Task] = []
        #: vcpu index -> task currently installed on that VCPU (or None).
        self.current: Dict[int, Optional[Task]] = {
            v.index: None for v in vm.vcpus}
        #: vcpu index -> READY tasks waiting for that VCPU.
        self.runqs: Dict[int, Deque[Task]] = {
            v.index: deque() for v in vm.vcpus}

        self.locks: Dict[str, SpinLock] = {}
        self.semaphores: Dict[str, Semaphore] = {}
        self.barriers: Dict[str, Barrier] = {}
        self.flags: Dict[str, FlagVar] = {}

        #: The ASMan Monitoring Module, when installed (see repro.asman).
        self.monitor = None
        #: Runtime invariant checker, when attached (repro.analysis);
        #: observes completed spinlock waits for LHP provenance.
        self.sanitizer = None
        self._done_callbacks: List[Callable[[], None]] = []
        self._spawn_rr = 0
        # Workload-completion counters: ``finished`` is re-tested at every
        # task completion (and once per simulated event by the reference
        # poll under REPRO_NO_FASTFORWARD=1), so it must not scan the
        # task list.
        self._workload_total = 0
        self._workload_done = 0
        self.guest_switches = 0
        self.finished_at: Optional[int] = None
        self.irq_count = 0
        # Quiescence fast-forward (sampled at construction): the inline
        # dispatch fast paths reproduce the step-wise expansion's state
        # shapes exactly (see docs/perf.md).  The caches below hold
        # config constants (frozen dataclasses) and per-lock micro-steps
        # so the hot loop does no repeated closure allocation.
        self._ff = fastforward_enabled()
        self._acq_wait = self.config.spinlock_acquire_cycles
        self._measure_floor = 1 << self.vm.config.monitor.measure_floor_exp
        self._hold_steps: Dict[int, MicroStep] = {}
        self._tail_steps: Dict[str, MicroStep] = {}
        self._decide_steps: Dict[str, MicroStep] = {}
        if self.config.irq_interval_cycles > 0:
            self._spawn_irq_daemon()

    # ------------------------------------------------------------------ #
    # Object registry
    # ------------------------------------------------------------------ #
    def lock(self, name: str) -> SpinLock:
        """Get-or-create a named kernel spinlock."""
        lk = self.locks.get(name)
        if lk is None:
            lk = SpinLock(name)
            self.locks[name] = lk
        return lk

    def flag(self, name: str) -> FlagVar:
        """Get-or-create a named userspace spin flag."""
        fl = self.flags.get(name)
        if fl is None:
            fl = FlagVar(name)
            self.flags[name] = fl
        return fl

    def semaphore(self, name: str, initial: int = 0) -> Semaphore:
        sem = self.semaphores.get(name)
        if sem is None:
            sem = Semaphore(name, initial)
            self.semaphores[name] = sem
        return sem

    def barrier(self, name: str, parties: int) -> Barrier:
        bar = self.barriers.get(name)
        if bar is None:
            bar = Barrier(name, parties)
            self.barriers[name] = bar
            # The bucket lock participates in the named-lock registry so
            # the metrics layer sees it like any other kernel spinlock.
            self.locks[bar.bucket.name] = bar.bucket
        elif bar.parties != parties:
            raise GuestStateError(
                f"barrier {name} exists with {bar.parties} parties")
        return bar

    def install_monitor(self, monitor) -> None:
        """Attach the ASMan Monitoring Module to this kernel."""
        self.monitor = monitor

    def on_all_done(self, callback: Callable[[], None]) -> None:
        """Register a callback fired when every task finishes."""
        self._done_callbacks.append(callback)

    # ------------------------------------------------------------------ #
    # Task lifecycle
    # ------------------------------------------------------------------ #
    def spawn(self, name: str, program: Program,
              vcpu_index: Optional[int] = None,
              daemon: bool = False) -> Task:
        """Create a task pinned to ``vcpu_index`` (round-robin default).

        Daemon tasks model kernel housekeeping: dispatched with priority,
        excluded from workload completion.
        """
        if vcpu_index is None:
            vcpu_index = self._spawn_rr % len(self.vm.vcpus)
            self._spawn_rr += 1
        if not 0 <= vcpu_index < len(self.vm.vcpus):
            raise WorkloadError(f"vcpu index {vcpu_index} out of range")
        task = Task(name, program, self.vm.vcpus[vcpu_index], daemon=daemon)
        task.runq = self.runqs[vcpu_index]
        self.tasks.append(task)
        if not daemon:
            self._workload_total += 1
        self._make_ready(task)
        return task

    def _spawn_irq_daemon(self) -> None:
        """VCPU0's interrupt-servicing load (see GuestConfig.irq_*)."""
        cfg = self.config
        lock_name = "kernel.irq"
        self.lock(lock_name)

        def program() -> Program:
            n = 0
            while True:
                n += 1
                jitter = 1.0 + 0.2 * ((n * 2654435761 % 1000) / 1000 - 0.5)
                yield Sleep(max(1, int(cfg.irq_interval_cycles * jitter)))
                self.irq_count += 1
                yield Compute(cfg.irq_work_cycles)
                if n % cfg.irq_lock_period == 0:
                    yield Critical(lock_name, cfg.irq_lock_hold_cycles)

        self.spawn("kernel.irqd", program(), vcpu_index=0, daemon=True)

    @property
    def finished(self) -> bool:
        return self._workload_total > 0 \
            and self._workload_done == self._workload_total

    def unfinished_tasks(self) -> List[Task]:
        return [t for t in self.tasks if not t.done and not t.daemon]

    # ------------------------------------------------------------------ #
    # VMM hooks (GuestClient protocol)
    # ------------------------------------------------------------------ #
    def on_online(self, vcpu: VCPU) -> None:
        """Our VCPU just got a PCPU: resume whatever it was doing."""
        task = self.current[vcpu.index]
        if task is None:
            task = self._pick_next(vcpu.index)
            if task is None:
                vcpu.block()
                return
            self._install(vcpu.index, task)
            self._dispatch(task)
            return
        if task.state is TaskState.SPINNING:
            if task.spin_flag is not None:
                flag, target, since = task.spin_flag
                if flag.satisfied(target):
                    self._flag_resume(task, flag, since)
                # else: keep burning CPU on the userspace spin.
            else:
                # A spinner that was offline past the threshold reports the
                # crossing as soon as its probe code runs again.
                if (self.monitor is not None and task.spin_since is not None
                        and self.sim.now - task.spin_since
                        > self.vm.config.monitor.over_threshold_cycles):
                    self.monitor.on_wait_in_progress(
                        task.spin_lock, self.sim.now - task.spin_since)
                self._try_spin_acquire(task)
            return
        if task.activity is not None:
            self._arm(task)
        else:
            self._dispatch(task)

    def on_offline(self, vcpu: VCPU) -> None:
        """Our VCPU lost its PCPU: pause the current task's timed work.
        A SPINNING task needs nothing — its wall-clock wait keeps running,
        which is exactly the virtualization pathology."""
        task = self.current[vcpu.index]
        if task is None:
            return
        if task.activity is not None:
            task.activity.pause(self.sim.now)

    # ------------------------------------------------------------------ #
    # Dispatch engine
    # ------------------------------------------------------------------ #
    def _dispatch(self, task: Task) -> None:
        """Run micro-steps until the task waits, blocks, or finishes.

        With fast-forward enabled the three hottest ops (Compute,
        Critical, BarrierOp entry) are executed inline instead of being
        expanded into micro-step closures first.  The inline paths are
        *state-shape identical* to the expansion: same counters bumped in
        the same order, same residual micro deque, same events armed at
        the same cycle with the same labels — which is why every
        fingerprint stays bit-identical (asserted by
        tests/test_fastforward.py against ``REPRO_NO_FASTFORWARD=1``).
        """
        if not self._ff:
            self._dispatch_slow(task)
            return
        sim = self.sim
        # micro / program / the home runq are bound once per Task and
        # never rebound (only mutated in place), so the Task-hoisted
        # aliases (mpop/pnext/runq) hold for its whole lifetime.
        micro = task.micro
        mpop = task.mpop
        pnext = task.pnext
        runq = task.runq
        while True:
            if micro:
                if mpop()(task) == WAIT:
                    return
                continue
            # Op boundary: safe preemption point for guest rotation
            # (cheap preconditions inlined: rotation needs a non-empty
            # runq and no held locks; _maybe_rotate re-checks the rest).
            if runq and not task.locks_held and self._maybe_rotate(task):
                return
            try:
                op = pnext()
            except StopIteration:
                self._task_done(task)
                return
            cls = op.__class__
            if cls is Compute:
                # Coalesced compute: one armed activity, no
                # _expand/_m_compute/_start_compute indirection.
                task.ops_completed += 1
                cycles = op.cycles
                if cycles <= 0:
                    continue
                cb = task.on_compute_done
                if cb is None:
                    cb = partial(self._activity_done, task)
                    task.on_compute_done = cb
                if cycles.__class__ is not int:
                    cycles = int(cycles)
                act = task.act_spare
                if act is None:
                    act = Activity(cycles, cb)
                else:
                    # Recycled: re-initialise every field Activity's
                    # constructor would set (on_complete included — the
                    # retired object may come from a slow-path burst
                    # with a custom completion callback).
                    task.act_spare = None
                    act.remaining = act.total = cycles
                    act.on_complete = cb
                task.activity = act
                act.started_at = now = sim._now
                # Scheduling inlined from Simulator.at: cycles is a
                # positive int, so time = now + cycles is an int in the
                # future and at()'s validation is provably redundant;
                # every side effect (seq, heap entry, live/peak counts)
                # is replicated exactly.
                sim._seq = seq = sim._seq + 1
                ev = Event.__new__(Event)
                ev.time = time = now + cycles
                ev.seq = seq
                ev.callback = cb
                ev.label = task.compute_label
                ev.cancelled = False
                ev.fired = False
                ev._sim = sim
                q = sim._queue
                heappush(q, (time, seq, ev))
                sim._live += 1
                depth = len(q) + len(sim._timers)
                if depth > sim.peak_heap_entries:
                    sim.peak_heap_entries = depth
                act.event = ev
                return
            if cls is Critical:
                task.ops_completed += 1
                lock = self.lock(op.lock)
                if self._fast_lock_hold(task, lock, op.hold,
                                        self._release_step(lock)):
                    continue
                return
            if cls is BarrierOp:
                bar = self.barriers.get(op.barrier)
                if bar is None:
                    raise WorkloadError(
                        f"barrier {op.barrier} was never declared")
                task.ops_completed += 1
                if self._fast_lock_hold(
                        task, bar.bucket,
                        self.config.futex_bucket_hold_cycles,
                        self._decide_step(bar)):
                    continue
                return
            self._expand(task, op)
            task.ops_completed += 1

    def _dispatch_slow(self, task: Task) -> None:
        """The original step-wise dispatch loop (``REPRO_NO_FASTFORWARD``)."""
        while True:
            step = task.next_micro()
            if step is None:
                # Op boundary: safe preemption point for guest rotation.
                if self._maybe_rotate(task):
                    return
                op = next(task.program, None)
                if op is None:
                    self._task_done(task)
                    return
                self._expand(task, op)
                task.ops_completed += 1
                continue
            if step(task) == WAIT:
                return

    def _fast_lock_hold(self, task: Task, lock: SpinLock, hold: int,
                        tail: MicroStep) -> bool:
        """Inline acquire → hold → ``tail`` (the fast-forward expansion of
        Critical and the BarrierOp bucket entry).

        Returns True when the dispatch loop should continue immediately
        (uncontended, zero-length hold), False when the task now waits.
        Equivalence with the step-wise path, case by case:

        * uncontended, hold > 0 — lock fields set as ``try_acquire``
          does, wait recorded through the same ``_record_wait``, then the
          hold is armed exactly as ``_start_compute``/``_arm`` would
          with the micro deque left as ``[tail]``;
        * uncontended, hold <= 0 — ``_start_compute`` returns CONTINUE,
          so only ``tail`` is queued and dispatch proceeds;
        * contended — identical bookkeeping to ``_spin_acquire``'s miss
          branch, with the deque left as ``[hold, tail]`` so the later
          ``_grant`` replays the same steps.
        """
        now = self.hrtimer.read()
        if lock.holder is None:
            lock.holder = task
            lock.held_since = now
            task.locks_held += 1
            self._record_wait(lock, self._acq_wait)
            if hold <= 0:
                task.micro.appendleft(tail)
                return True
            cb = task.on_compute_done
            if cb is None:
                cb = partial(self._activity_done, task)
                task.on_compute_done = cb
            if hold.__class__ is not int:
                hold = int(hold)
            act = task.act_spare
            if act is None:
                act = Activity(hold, cb)
            else:
                task.act_spare = None
                act.remaining = act.total = hold
                act.on_complete = cb
            task.activity = act
            task.micro.appendleft(tail)
            sim = self.sim
            act.started_at = snow = sim._now
            # Scheduling inlined from Simulator.at, exactly as in the
            # _dispatch Compute branch (hold is a positive int here).
            sim._seq = seq = sim._seq + 1
            ev = Event.__new__(Event)
            ev.time = time = snow + hold
            ev.seq = seq
            ev.callback = cb
            ev.label = task.compute_label
            ev.cancelled = False
            ev.fired = False
            ev._sim = sim
            q = sim._queue
            heappush(q, (time, seq, ev))
            sim._live += 1
            depth = len(q) + len(sim._timers)
            if depth > sim.peak_heap_entries:
                sim.peak_heap_entries = depth
            act.event = ev
            return False
        lock.record_contended()
        lock.enqueue_waiter(task, now)
        task.state = TaskState.SPINNING
        task.spin_lock = lock
        task.spin_since = now
        task.micro.appendleft(tail)
        task.micro.appendleft(self._hold_step(hold))
        self._arm_over_threshold_check(task, lock, now)
        return False

    def _release_step(self, lock: SpinLock) -> MicroStep:
        step = self._tail_steps.get(lock.name)
        if step is None:
            step = self._m_spin_release(lock)
            self._tail_steps[lock.name] = step
        return step

    def _decide_step(self, bar: Barrier) -> MicroStep:
        step = self._decide_steps.get(bar.name)
        if step is None:
            step = self._m_barrier_decide(bar)
            self._decide_steps[bar.name] = step
        return step

    def _hold_step(self, cycles: int) -> MicroStep:
        step = self._hold_steps.get(cycles)
        if step is None:
            step = self._m_compute(cycles)
            if len(self._hold_steps) < _HOLD_CACHE_MAX:
                self._hold_steps[cycles] = step
        return step

    def _expand(self, task: Task, op: Op) -> None:
        if isinstance(op, Compute):
            task.push_micro(self._m_compute(op.cycles))
        elif isinstance(op, Critical):
            lock = self.lock(op.lock)
            task.push_micro(self._m_spin_acquire(lock),
                            self._m_compute(op.hold),
                            self._m_spin_release(lock))
        elif isinstance(op, BarrierOp):
            bar = self.barriers.get(op.barrier)
            if bar is None:
                raise WorkloadError(
                    f"barrier {op.barrier} was never declared")
            task.push_micro(self._m_spin_acquire(bar.bucket),
                            self._m_compute(self.config.futex_bucket_hold_cycles),
                            self._m_barrier_decide(bar))
        elif isinstance(op, Sleep):
            task.push_micro(self._m_timed_sleep(op.cycles))
        elif isinstance(op, FlagSet):
            task.push_micro(self._m_flag_set(self.flag(op.flag), op.value))
        elif isinstance(op, FlagWait):
            task.push_micro(self._m_flag_wait(self.flag(op.flag), op.value))
        elif isinstance(op, SemDown):
            sem = self.semaphore(op.sem)
            task.push_micro(self._m_sem_down(sem))
        elif isinstance(op, SemUp):
            sem = self.semaphore(op.sem)
            task.push_micro(self._m_sem_up(sem))
        else:
            raise WorkloadError(f"unknown op {op!r}")

    # -- timed compute --------------------------------------------------- #
    def _m_compute(self, cycles: int):
        def step(task: Task) -> str:
            return self._start_compute(task, cycles)
        return step

    def _start_compute(self, task: Task, cycles: int,
                       on_complete: Optional[Callable[[], None]] = None) -> str:
        if cycles <= 0:
            return CONTINUE
        cb = on_complete
        if cb is None:
            cb = task.on_compute_done
            if cb is None:
                def cb() -> None:
                    self._activity_done(task)
                task.on_compute_done = cb
        act = Activity(cycles, cb)
        task.activity = act
        self._arm(task)
        return WAIT

    def _arm(self, task: Task) -> None:
        act = task.activity
        if act is None or act.armed:
            return
        act.started_at = self.sim.now
        act.event = self.sim.at(self.sim.now + act.remaining,
                                act.on_complete,
                                label=task.compute_label)

    def _activity_done(self, task: Task) -> None:
        act = task.activity
        if act is None:
            return
        task.activity = None
        task.ran_since_dispatch += act.total
        task.compute_cycles_done += act.total
        # Retire the object for the fast paths to recycle: a task runs at
        # most one activity at a time and nothing keeps a reference past
        # this point (the fired Event references the callback, not act).
        task.act_spare = act
        self._dispatch(task)

    # -- spinlocks --------------------------------------------------------#
    def _m_spin_acquire(self, lock: SpinLock):
        def step(task: Task) -> str:
            return self._spin_acquire(task, lock)
        return step

    def _m_spin_release(self, lock: SpinLock):
        grant_next = self._grant_next

        def step(task: Task) -> str:
            # _spin_release's body, inlined: this closure is the tail of
            # every Critical/Barrier hold, hot enough that the extra
            # delegation frame was measurable.
            lock.release(task)
            task.locks_held -= 1
            grant_next(lock)
            return CONTINUE
        return step

    def _spin_acquire(self, task: Task, lock: SpinLock) -> str:
        now = self.hrtimer.read()
        if lock.try_acquire(task, now):
            task.locks_held += 1
            self._record_wait(lock, self.config.spinlock_acquire_cycles)
            return CONTINUE
        lock.record_contended()
        lock.enqueue_waiter(task, now)
        task.state = TaskState.SPINNING
        task.spin_lock = lock
        task.spin_since = now
        self._arm_over_threshold_check(task, lock, now)
        return WAIT

    def _arm_over_threshold_check(self, task: Task, lock: SpinLock,
                                  since: int) -> None:
        """The Monitoring Module's probe sits *inside* the spin loop: it
        notices the wait crossing 2^delta while still spinning, not at
        acquisition.  Model: an event at the crossing point that fires the
        monitor if the task is still spinning and online (an offline
        spinner reports on its next online resume instead — the probe
        code cannot run while the VCPU is descheduled)."""
        if self.monitor is None:
            return
        threshold = self.vm.config.monitor.over_threshold_cycles

        def check() -> None:
            if (task.state is TaskState.SPINNING and task.spin_lock is lock
                    and task.spin_since == since and task.vcpu.is_online):
                self.monitor.on_wait_in_progress(lock,
                                                 self.sim.now - since)

        self.sim.at(since + threshold + 1, check,
                    label=f"ot-check:{task.name}")

    def _grant_next(self, lock: SpinLock) -> None:
        """Hand a freed lock to the oldest waiter that is spinning on an
        online VCPU right now.  Offline spinners stay queued (they race
        again when their VCPU resumes — the real lock's unfairness)."""
        if not lock.waiters:
            return
        # Iterating the live list is safe: the first grant removes its
        # entry and returns immediately, so no mutation-while-iterating.
        for waiter, since in lock.waiters:
            vcpu = waiter.vcpu
            if (waiter.state is TaskState.SPINNING and vcpu.is_online
                    and self.current[vcpu.index] is waiter):
                lock.remove_waiter(waiter)
                self._grant(waiter, lock, since)
                return

    def _try_spin_acquire(self, task: Task) -> None:
        """An online-again VCPU finds its task spinning: grab the lock if
        it has become free meanwhile, else keep spinning."""
        lock = task.spin_lock
        if lock is None:
            raise GuestStateError(f"{task.name} SPINNING with no lock")
        if lock.holder is None:
            since = lock.remove_waiter(task)
            self._grant(task, lock, since)
        # else: remain SPINNING; the VCPU burns cycles until release.

    def _grant(self, task: Task, lock: SpinLock, since: int) -> None:
        now = self.hrtimer.read()
        if not lock.try_acquire(task, now):
            raise GuestStateError(f"granting held lock {lock.name}")
        task.state = TaskState.RUNNING
        task.spin_lock = None
        task.spin_since = None
        task.locks_held += 1
        self._record_wait(lock, now - since)
        self._dispatch(task)

    def _record_wait(self, lock: SpinLock, wait: int) -> None:
        lock.record_acquisition(wait)
        if wait >= self._measure_floor:
            self.trace.emit(self.sim.now, "spinlock.wait",
                            vm=self.vm.name, lock=lock.name, wait=wait)
        if self.monitor is not None:
            self.monitor.on_spinlock_wait(lock, wait)
        if self.sanitizer is not None:
            self.sanitizer.note_spin_wait(self.vm, lock, wait)

    # -- timed sleep ------------------------------------------------------#
    def _m_timed_sleep(self, cycles: int):
        def step(task: Task) -> str:
            self.sim.after(cycles, partial(self._make_ready, task),
                           label=f"sleep:{task.name}")
            self._block_current(task)
            return WAIT
        return step

    # -- userspace spin flags -------------------------------------------- #
    def _m_flag_set(self, flag: FlagVar, value: int):
        def step(task: Task) -> str:
            for wtask, target, since in flag.advance(value):
                # Resume satisfied waiters that are executing right now;
                # offline ones resume from on_online.
                if wtask.vcpu.is_online and \
                        self.current[wtask.vcpu.index] is wtask:
                    self._flag_resume(wtask, flag, since)
                else:
                    # Satisfied but descheduled: convert to a resumable
                    # state so on_online continues the program.
                    wtask.spin_flag = None
                    wtask.state = TaskState.RUNNING
                    flag.record_wait(self.sim.now - since)
            return CONTINUE
        return step

    def _m_flag_wait(self, flag: FlagVar, value: int):
        def step(task: Task) -> str:
            if flag.satisfied(value):
                return CONTINUE
            flag.add_waiter(task, value, self.sim.now)
            task.state = TaskState.SPINNING
            task.spin_flag = (flag, value, self.sim.now)
            return WAIT
        return step

    def _flag_resume(self, task: Task, flag: FlagVar, since: int) -> None:
        """An online flag-spinner observed its flag: continue the program."""
        flag.record_wait(self.sim.now - since)
        task.spin_flag = None
        task.state = TaskState.RUNNING
        self._dispatch(task)

    # -- semaphores ------------------------------------------------------ #
    def _m_sem_down(self, sem: Semaphore):
        def step(task: Task) -> str:
            if sem.try_down(task):
                return CONTINUE
            sem.enqueue_waiter(task, self.sim.now)
            self._block_current(task)
            return WAIT
        return step

    def _m_sem_up(self, sem: Semaphore):
        def step(task: Task) -> str:
            woken = sem.up(self.sim.now)
            if woken is not None:
                wtask, wait = woken
                self.trace.emit(self.sim.now, "sem.wait",
                                vm=self.vm.name, sem=sem.name, wait=wait)
                self._make_ready(wtask)
            return CONTINUE
        return step

    # -- barriers / futexes ----------------------------------------------#
    def _m_barrier_decide(self, bar: Barrier):
        def step(task: Task) -> str:
            # Runs while holding the bucket lock.
            if bar.arrive():
                woken = bar.reset_and_wake()
                # Userspace spinners see the generation bump immediately.
                for spinner in list(bar.futex.spinning):
                    self._spin_phase_satisfied(spinner, bar.futex)
                wake_cost = self.config.futex_bucket_hold_cycles * max(1, len(woken))
                for wtask, since in woken:
                    self._make_ready(wtask)
                task.push_micro(self._m_compute(wake_cost),
                                self._m_spin_release(bar.bucket))
            else:
                my_gen = bar.futex.sample()
                task.push_micro(self._m_spin_release(bar.bucket),
                                self._m_futex_spin(bar, my_gen))
            return CONTINUE
        return step

    def _m_futex_spin(self, bar: Barrier, my_gen: int):
        def step(task: Task) -> str:
            futex = bar.futex
            if futex.generation != my_gen:
                return CONTINUE  # released before we even started waiting
            futex.start_spin(task, my_gen)
            budget = self.config.futex_spin_cycles
            if budget <= 0:
                return self._futex_slow_path(task, bar, my_gen)
            act = Activity(
                budget,
                lambda: self._spin_budget_exhausted(task, bar, my_gen))
            task.activity = act
            self._arm(task)
            return WAIT
        return step

    def _spin_phase_satisfied(self, task: Task, futex: FutexQueue) -> None:
        """The generation moved while ``task`` was in its userspace spin
        phase: stop the spin and continue its program."""
        futex.end_spin(task)
        futex.spin_successes += 1
        act = task.activity
        if act is not None:
            act.pause(self.sim.now)
            task.activity = None
        vcpu = task.vcpu
        if vcpu.is_online and self.current[vcpu.index] is task:
            self._dispatch(task)
        # else: on_online will dispatch (activity is None, not SPINNING).

    def _spin_budget_exhausted(self, task: Task, bar: Barrier,
                               my_gen: int) -> None:
        bar.futex.end_spin(task)
        budget = task.activity.total if task.activity else 0
        task.activity = None
        task.ran_since_dispatch += budget
        status = self._futex_slow_path(task, bar, my_gen)
        if status == CONTINUE:
            self._dispatch(task)

    def _futex_slow_path(self, task: Task, bar: Barrier, my_gen: int) -> str:
        """Enter the kernel: bucket lock, compare-and-block, release."""
        task.push_micro(
            self._m_spin_acquire(bar.bucket),
            self._m_compute(self.config.futex_bucket_hold_cycles),
            self._m_futex_block(bar, my_gen))
        return CONTINUE

    def _m_futex_block(self, bar: Barrier, my_gen: int):
        def step(task: Task) -> str:
            # Holding the bucket lock: the compare-and-block.
            enqueued = bar.futex.block(task, my_gen, self.sim.now)
            if enqueued:
                task.push_micro(self._m_spin_release(bar.bucket),
                                self._m_sleep())
            else:
                task.push_micro(self._m_spin_release(bar.bucket))
            return CONTINUE
        return step

    def _m_sleep(self):
        def step(task: Task) -> str:
            self._block_current(task)
            return WAIT
        return step

    # ------------------------------------------------------------------ #
    # Guest-level scheduling
    # ------------------------------------------------------------------ #
    def _install(self, vcpu_index: int, task: Task) -> None:
        task.require_state(TaskState.READY)
        self.current[vcpu_index] = task
        task.state = TaskState.RUNNING
        task.ran_since_dispatch = 0

    def _pick_next(self, vcpu_index: int) -> Optional[Task]:
        runq = self.runqs[vcpu_index]
        return runq.popleft() if runq else None

    def _block_current(self, task: Task) -> None:
        """The current task blocked (sem/futex): switch or idle the VCPU."""
        task.state = TaskState.BLOCKED
        self._vacate_and_switch(task.vcpu)

    def _task_done(self, task: Task) -> None:
        task.state = TaskState.DONE
        task.finished_at = self.sim.now
        if not task.daemon:
            self._workload_done += 1
        self.trace.emit(self.sim.now, "task.done",
                        vm=self.vm.name, task=task.name)
        if self.finished:
            self.finished_at = self.sim.now
            self.trace.emit(self.sim.now, "workload.done", vm=self.vm.name)
            for cb in self._done_callbacks:
                cb()
        self._vacate_and_switch(task.vcpu)

    def _vacate_and_switch(self, vcpu: VCPU) -> None:
        idx = vcpu.index
        self.current[idx] = None
        nxt = self._pick_next(idx)
        if nxt is None:
            vcpu.block()
            return
        self.guest_switches += 1
        self._install(idx, nxt)
        self._dispatch(nxt)

    def _make_ready(self, task: Task) -> None:
        """A task became runnable (spawned, sem-up'd, futex-woken)."""
        task.state = TaskState.READY
        vcpu = task.vcpu
        idx = vcpu.index
        if self.current[idx] is None:
            self._install(idx, task)
            if vcpu.is_online:
                # Transient: the VCPU is on a PCPU between tasks.
                self._dispatch(task)
            else:
                # wake() may cause the VMM to place the VCPU *immediately*
                # (idle PCPU), in which case on_online has already run the
                # dispatch — so no dispatch here, or micro-steps would be
                # consumed twice.
                vcpu.wake()
        elif task.daemon:
            # Interrupt semantics: kernel work goes to the queue front and
            # preempts the current task at its next op boundary.
            self.runqs[idx].appendleft(task)
        else:
            self.runqs[idx].append(task)

    def _maybe_rotate(self, task: Task) -> bool:
        """Guest timeslice rotation at op boundaries (only relevant when
        several tasks share a VCPU, e.g. SPECjbb warehouses)."""
        if task.locks_held:
            return False
        idx = task.vcpu.index
        runq = self.runqs[idx]
        if not runq:
            return False
        if (not runq[0].daemon
                and task.ran_since_dispatch < self.config.timeslice_cycles):
            return False
        task.state = TaskState.READY
        task.ran_since_dispatch = 0
        runq.append(task)
        nxt = runq.popleft()
        self.guest_switches += 1
        self.current[idx] = None
        self._install(idx, nxt)
        self._dispatch(nxt)
        return True
