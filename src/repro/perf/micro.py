"""Micro-benchmarks: the event engine (and its nearest consumers) alone.

Every benchmark here is deterministic — no RNG, fixed iteration counts
sized for the CI gate — so its ``fingerprint`` (final clock + event
count) is bit-identical across hosts and runs.
"""

from __future__ import annotations

from repro.config import MachineConfig, SchedulerConfig, VMConfig
from repro.guest.kernel import GuestKernel
from repro.guest.ops import Compute, Critical
from repro.hardware.machine import Machine
from repro.perf.harness import (BenchResult, bench, fingerprint_of,
                                result_from_sim, timed)
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus
from repro.vmm.credit import CreditScheduler
from repro.vmm.vm import VM


@bench("event_throughput")
def event_throughput() -> BenchResult:
    """Raw schedule/fire throughput: a heap of self-rescheduling chains.

    ``width`` chains keep the heap populated (realistic depth for the
    testbeds) while each firing schedules its successor — the dominant
    pattern of compute-activity events in real runs.
    """
    width = 64
    hops = 2_500
    sim = Simulator()
    remaining = [hops] * width

    def make_chain(i: int):
        def fire() -> None:
            remaining[i] -= 1
            if remaining[i] > 0:
                sim.at(sim.now + 17 + i, fire)
        return fire

    for i in range(width):
        sim.at(i + 1, make_chain(i))

    wall, _ = timed(lambda: sim.run() or sim.events_executed)
    return result_from_sim(
        "event_throughput", sim, wall,
        fingerprint=fingerprint_of(sim.now, sim.events_executed))


@bench("schedule_cancel_churn")
def schedule_cancel_churn() -> BenchResult:
    """Schedule/cancel churn: the Activity pause/resume pattern.

    Each round schedules a batch of far-future events and immediately
    cancels most of them — exactly what guest compute activities do when
    their VCPU is descheduled.  Without heap compaction the cancelled
    entries accumulate for the life of the run (the pre-fix behaviour);
    ``peak_heap_entries`` is the regression witness.
    """
    rounds = 2_000
    batch = 20
    cancel_frac = 19  # cancel 19 of every 20
    sim = Simulator()
    scheduled = 0

    def round_fn(r: int):
        def fire() -> None:
            nonlocal scheduled
            horizon = sim.now + 1_000_000
            batch_events = [sim.at(horizon + j, _noop) for j in range(batch)]
            scheduled += batch
            for ev in batch_events[:cancel_frac]:
                ev.cancel()
            if r + 1 < rounds:
                sim.at(sim.now + 1, round_fn(r + 1))
        return fire

    sim.at(1, round_fn(0))
    wall, _ = timed(lambda: sim.run() or sim.events_executed)
    return result_from_sim(
        "schedule_cancel_churn", sim, wall,
        fingerprint=fingerprint_of(sim.now, sim.events_executed),
        scheduled=float(scheduled))


def _noop() -> None:
    pass


@bench("periodic_storm")
def periodic_storm() -> BenchResult:
    """Periodic-timer storm: the per-PCPU tick/accounting pattern.

    64 timers with staggered near-coprime periods — the engine's
    bucketed periodic fast path is on trial here (re-arm without
    allocation, small dedicated heap).
    """
    timers = 64
    horizon = 250_000
    sim = Simulator()
    fired = [0] * timers
    for i in range(timers):
        def cb(i: int = i) -> None:
            fired[i] += 1
        sim.every(89 + 2 * i, cb, start_offset=i)
    wall, _ = timed(lambda: sim.run_until(horizon) or sim.events_executed)
    return result_from_sim(
        "periodic_storm", sim, wall,
        fingerprint=fingerprint_of(sim.now, sim.events_executed, sum(fired)))


@bench("compute_chain")
def compute_chain() -> BenchResult:
    """Pure-Compute dispatch: the coalesced-segment fast path.

    A 4-PCPU machine runs one 4-VCPU VM whose 4 tasks are long chains of
    Compute segments with zero synchronisation.  Every op takes the
    guest kernel's inline Compute dispatch — one Activity event per
    segment, credit burned in closed form at the tick boundaries in
    between — so this isolates the fast-forward compute-coalescing win
    (and, with ``REPRO_NO_FASTFORWARD=1``, the step-wise cost it
    replaces) from lock/barrier traffic.
    """
    from repro.config import GuestConfig

    ops_per_task = 4_000
    sim = Simulator()
    trace = TraceBus()
    machine = Machine(MachineConfig(num_pcpus=4, sockets=1), sim)
    sched = CreditScheduler(machine, sim, trace,
                            SchedulerConfig(work_conserving=True))
    gcfg = GuestConfig(irq_interval_cycles=0)
    vm = VM(0, VMConfig(name="chain", num_vcpus=4, guest=gcfg), sim, trace)
    sched.add_vm(vm)
    kernel = GuestKernel(vm, sim, trace, gcfg)

    def program(seed: int):
        for i in range(ops_per_task):
            yield Compute(2_000 + 500 * ((seed + i) % 7))

    for t in range(4):
        kernel.spawn(f"c{t}", program(t), vcpu_index=t)
    sched.start()

    def drive() -> int:
        sim.run_until_true(lambda: kernel.finished,
                           deadline=10_000_000_000)
        return sim.events_executed

    wall, _ = timed(drive)
    return result_from_sim(
        "compute_chain", sim, wall,
        fingerprint=fingerprint_of(sim.now, sim.events_executed,
                                   kernel.finished_at or 0))


@bench("spinlock_storm")
def spinlock_storm() -> BenchResult:
    """Guest spinlock contention storm through the full stack.

    A 4-PCPU machine under the Credit scheduler runs one 4-VCPU VM whose
    8 tasks hammer a single kernel spinlock — scheduler ticks, guest
    dispatch, lock-holder preemption and trace emission all on the hot
    path, with zero randomness.
    """
    from repro.config import GuestConfig

    ops_per_task = 1_000
    sim = Simulator()
    trace = TraceBus()
    machine = Machine(MachineConfig(num_pcpus=4, sockets=1), sim)
    sched = CreditScheduler(machine, sim, trace,
                            SchedulerConfig(work_conserving=True))
    gcfg = GuestConfig(irq_interval_cycles=0)
    vm = VM(0, VMConfig(name="storm", num_vcpus=4, guest=gcfg), sim, trace)
    sched.add_vm(vm)
    kernel = GuestKernel(vm, sim, trace, gcfg)

    def program(seed: int):
        for i in range(ops_per_task):
            yield Compute(3_000 + 700 * ((seed + i) % 5))
            yield Critical("hot", 9_000)

    for t in range(8):
        kernel.spawn(f"t{t}", program(t), vcpu_index=t % 4)
    sched.start()

    def drive() -> int:
        sim.run_until_true(lambda: kernel.finished,
                           deadline=10_000_000_000)
        return sim.events_executed

    wall, _ = timed(drive)
    lock = kernel.lock("hot")
    return result_from_sim(
        "spinlock_storm", sim, wall,
        fingerprint=fingerprint_of(sim.now, sim.events_executed,
                                   kernel.finished_at or 0,
                                   lock.acquisitions, lock.total_wait),
        contended=float(lock.contended_acquisitions))
