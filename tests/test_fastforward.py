"""Quiescence fast-forward (PR 9): bit-identity and the escape hatch.

The fast-forward layer replaces step-wise paths with analytically
equivalent shortcuts; its whole contract is that no observable integer
moves.  Every scenario here runs twice — once with the shortcuts, once
on the original paths (``set_fastforward(False)``, the in-process twin
of ``REPRO_NO_FASTFORWARD=1``) — and asserts a rich state fingerprint
is identical.  The scenarios are the edge cases where a shortcut could
plausibly diverge:

* a sleep wake landing exactly on a credit-tick boundary (one-shot vs
  periodic heap ordering at equal timestamps, lazy quiescent ticks);
* zero-length ``Compute`` segments (the inline dispatch elides the
  activity — so must the micro-step path);
* a spinlock released at the same cycle an IPI is delivered (same-cycle
  sequence ordering of the inline-at fast paths);
* a fault-injected hypercall delay landing inside a coalesced compute
  segment (deferred side effects interleaved with batched activities).

Plus push-driven completion: the testbed drivers stop the fused run loop
from completion callbacks (``on_all_done``, ``Workload.on_round``)
instead of polling a predicate after every event, and must stop on the
same event — including deadline returns, already-met targets and stale
callbacks left behind by an earlier drive call.

Plus quiet holds: a lock hold whose completion is provably the next
event runs inside the event that starts it, and must not when it ends
on a tick, past a deadline or ``run_for`` window, or in a dispatch
nested inside another task's release.

Plus the two perf micro benches that run purely on the fast paths
(``compute_chain``, ``spinlock_storm``).

Plus the levers themselves: ``REPRO_NO_FASTFORWARD`` parsing and the
:func:`closed_form_burn` ≡ ``SchedulerBase._debit`` algebra that
justifies compute coalescing.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from repro import fastforward, units
from repro.config import (GuestConfig, MachineConfig, SchedulerConfig,
                          VMConfig)
from repro.experiments.runner import run_multi_vm
from repro.experiments.setup import Testbed as SimTestbed
from repro.experiments.setup import weight_for_rate
from repro.fastforward import fastforward_enabled, set_fastforward
from repro.faults import FaultSpec
from repro.guest.kernel import GuestKernel
from repro.guest.ops import BarrierOp, Compute, Critical, Sleep
from repro.hardware.machine import Machine
from repro.perf import registry as perf_benches
from repro.perf.harness import fingerprint_of
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus
from repro.vmm.credit import CreditScheduler, closed_form_burn
from repro.workloads.nas import NasBenchmark
from repro.workloads.speccpu import SpecCpuRateWorkload

TICK = SchedulerConfig().tick_cycles


def run_both_ways(scenario):
    """Run ``scenario()`` with fast-forward on, then off, and return both
    results.  The flag is sampled at construction time, so it is set
    *before* the scenario builds anything and always restored."""
    results = []
    for enabled in (True, False):
        set_fastforward(enabled)
        try:
            results.append(scenario())
        finally:
            set_fastforward(None)
    return results


def guest_fingerprint(sim, kernel, *extra: int) -> int:
    """Everything a divergent shortcut could move: clock, event count,
    per-task progress and completion cycles, lock statistics including
    the wait histogram."""
    parts = [sim.now, sim.events_executed, kernel.finished_at or 0]
    for task in kernel.tasks:
        parts += [task.ops_completed, task.compute_cycles_done,
                  task.finished_at or 0]
    for name in sorted(kernel.locks):
        lock = kernel.lock(name)
        parts += [lock.acquisitions, lock.contended_acquisitions,
                  lock.total_wait, lock.max_wait]
        for exp, count in sorted(lock.wait_hist_nonzero().items()):
            parts += [exp, count]
    parts.extend(extra)
    return fingerprint_of(*parts)


def small_guest(num_pcpus=2, num_vcpus=2):
    """The micro-bench scaffold: one VM under the Credit scheduler, no
    IRQ daemon, fully deterministic."""
    sim = Simulator()
    trace = TraceBus()
    machine = Machine(MachineConfig(num_pcpus=num_pcpus, sockets=1), sim)
    sched = CreditScheduler(machine, sim, trace,
                            SchedulerConfig(work_conserving=True))
    gcfg = GuestConfig(irq_interval_cycles=0)
    from repro.vmm.vm import VM
    vm = VM(0, VMConfig(name="ff", num_vcpus=num_vcpus, guest=gcfg),
            sim, trace)
    sched.add_vm(vm)
    kernel = GuestKernel(vm, sim, trace, gcfg)
    return sim, trace, machine, sched, kernel


# --------------------------------------------------------------------- #
# Edge case 1: sleep wake exactly on a credit-tick boundary
# --------------------------------------------------------------------- #
class TestTickBoundaryWake:
    def test_wake_on_tick_boundary_bit_identical(self):
        """The task computes, then sleeps so that the wake event lands on
        the next credit-tick boundary by construction.  While it sleeps
        the machine is fully quiescent, so the ff path skips the tick's
        scheduling pass — the wake and the tick then race at the same
        cycle and must resolve by the same sequence numbers."""

        def scenario():
            sim, trace, machine, sched, kernel = small_guest(num_vcpus=1)
            planned = []

            def program():
                for _ in range(8):
                    yield Compute(7_777)
                    gap = TICK - (sim.now % TICK)
                    planned.append(sim.now + gap)
                    yield Sleep(gap)
                    yield Compute(3_333)

            kernel.spawn("sleeper", program(), vcpu_index=0)
            sched.start()
            assert sim.run_until_true(lambda: kernel.finished,
                                      deadline=units.seconds(10))
            # The construction really did aim at boundaries.
            assert planned and all(t % TICK == 0 for t in planned)
            return guest_fingerprint(sim, kernel, *planned)

        on, off = run_both_ways(scenario)
        assert on == off

    def test_compute_segment_ending_on_tick_boundary(self):
        """Same race from the other side: the compute activity's
        completion event is armed for exactly a tick boundary."""

        def scenario():
            sim, trace, machine, sched, kernel = small_guest(num_vcpus=1)

            def program():
                for _ in range(4):
                    gap = TICK - (sim.now % TICK)
                    yield Compute(gap)
                    yield Sleep(1_234)

            kernel.spawn("edge", program(), vcpu_index=0)
            sched.start()
            assert sim.run_until_true(lambda: kernel.finished,
                                      deadline=units.seconds(10))
            return guest_fingerprint(sim, kernel)

        on, off = run_both_ways(scenario)
        assert on == off


# --------------------------------------------------------------------- #
# Edge case 2: zero-length Compute
# --------------------------------------------------------------------- #
class TestZeroLengthCompute:
    def test_zero_compute_bit_identical(self):
        """Compute(0) arms no activity on either path (the inline branch
        elides it; ``_start_compute`` returns CONTINUE) but still counts
        as a completed op.  Zero-hold Criticals ride along."""
        rounds = 200

        def scenario():
            sim, trace, machine, sched, kernel = small_guest()

            def program(seed):
                for i in range(rounds):
                    yield Compute(0)
                    yield Compute(((seed + i) % 3) * 1_500)  # 0, 1500, 3000
                    yield Critical("Z", 0 if i % 5 == 0 else 4_000)
                for _ in range(10):
                    yield Compute(0)

            tasks = [kernel.spawn(f"z{t}", program(t), vcpu_index=t)
                     for t in range(2)]
            sched.start()
            assert sim.run_until_true(lambda: kernel.finished,
                                      deadline=units.seconds(10))
            # Zero-length ops are real ops: all counted, no event armed.
            assert all(t.ops_completed == rounds * 3 + 10 for t in tasks)
            return guest_fingerprint(sim, kernel)

        on, off = run_both_ways(scenario)
        assert on == off


# --------------------------------------------------------------------- #
# Edge case 3: spin released at the same timestamp as an IPI
# --------------------------------------------------------------------- #
class TestSpinReleaseIpiCollision:
    def _build(self):
        sim, trace, machine, sched, kernel = small_guest()

        def holder():
            yield Compute(1_000)
            yield Critical("L", 50_000)
            yield Compute(10_000)

        def waiter():
            yield Compute(5_000)
            yield Critical("L", 20_000)
            yield Compute(10_000)

        kernel.spawn("hold", holder(), vcpu_index=0)
        kernel.spawn("wait", waiter(), vcpu_index=1)
        return sim, trace, machine, sched, kernel

    def test_ipi_delivered_at_release_cycle_bit_identical(self):
        """The waiter's grant (== the holder's release cycle) and a
        rescheduling IPI land on the same cycle; ordering then hangs
        entirely on event sequence numbers, which the inline-at fast
        paths must assign exactly as ``Simulator.at`` would."""
        # Discovery pass: find the release cycle.  Both modes are
        # bit-identical (the very claim under test), so either would
        # find the same cycle; pin one for determinism.
        set_fastforward(True)
        try:
            sim, trace, machine, sched, kernel = self._build()
            grants = []
            trace.subscribe("spinlock.wait",
                            lambda rec: grants.append(rec.time))
            sched.start()
            assert sim.run_until_true(lambda: kernel.finished,
                                      deadline=units.seconds(10))
        finally:
            set_fastforward(None)
        assert grants, "scenario must contend the lock"
        release = grants[0]
        latency = machine.config.ipi_latency
        assert release > latency

        def scenario():
            sim, trace, machine, sched, kernel = self._build()
            # Fire the send so delivery lands exactly on the release
            # cycle; the default handler is a rescheduling interrupt.
            sim.at(release - latency, lambda: sched.ipi.send(0, 1))
            sched.start()
            assert sim.run_until_true(lambda: kernel.finished,
                                      deadline=units.seconds(10))
            return guest_fingerprint(sim, kernel, sched.ipi.sent)

        on, off = run_both_ways(scenario)
        assert on == off


# --------------------------------------------------------------------- #
# Edge case 4: hypercall delay interrupting a coalesced segment
# --------------------------------------------------------------------- #
class TestFaultedHypercallDelay:
    def test_delayed_hypercalls_bit_identical(self):
        """Every monitor hypercall's effect is deferred by a drawn delay,
        so VCRD flips land mid-way through coalesced compute segments.
        The full ASMan stack (monitor, inference, adaptive scheduler)
        must stay bit-identical under fast-forward."""
        # Spurious VCRD flips guarantee a steady stream of do_vcrd_op
        # hypercalls; every one of them is then delayed.
        spec = FaultSpec(seed=3, hypercall_delay=1.0,
                         hypercall_delay_cycles=units.ms(1),
                         monitor_flip_period=units.ms(5))

        def scenario():
            tb = SimTestbed(scheduler="asman", seed=1, sanitize=False,
                            faults=spec)
            tb.add_domain0()
            tb.add_vm("V1", weight=weight_for_rate(2.0 / 9.0),
                      workload=NasBenchmark.by_name("LU", scale=0.1))
            done = tb.run_until_workloads_done(
                ["V1"], deadline_cycles=units.seconds(120))
            assert done
            assert tb.faults is not None
            stats = tb.faults.stats()
            assert stats["hypercalls_delayed"] > 0
            kernel = tb.guests["V1"]
            return guest_fingerprint(
                tb.sim, kernel,
                *(v for _, v in sorted(stats.items())))

        on, off = run_both_ways(scenario)
        assert on == off


# --------------------------------------------------------------------- #
# Push-driven completion: multi-VM round targets and stale callbacks
# --------------------------------------------------------------------- #
def nas_spec_mix(made, rounds=3):
    """A small Section 5.3 mix (SPEC gcc + NAS LU); ``made`` collects
    the built workloads so a scenario can read their round times."""
    def capture(factory):
        def build():
            wl = factory()
            made.append(wl)
            return wl
        return build
    return [
        ("V1", capture(lambda: SpecCpuRateWorkload.by_name(
            "176.gcc", scale=0.05, rounds=rounds)), False),
        ("V2", capture(lambda: NasBenchmark.by_name(
            "LU", scale=0.05, rounds=rounds)), True),
    ]


def multi_vm_outcome(result, made):
    """Clock, event count, every workload's per-thread round times and
    the Jain index of one multi-VM run (compared exactly)."""
    return (made[0].kernel.sim.now, result.events_executed,
            result.finished, result.fairness_jains, result.round_seconds,
            [wl.round_times for wl in made])


class TestPushDrivenCompletion:
    def test_multi_vm_mix_bit_identical(self):
        def scenario():
            made = []
            r = run_multi_vm(nas_spec_mix(made), scheduler="credit",
                             measure_rounds=2)
            assert r.finished
            assert all(wl.rounds_completed() >= 2 for wl in made)
            return multi_vm_outcome(r, made)

        on, off = run_both_ways(scenario)
        assert on == off

    def test_multi_vm_deadline_return_bit_identical(self):
        """The deadline strikes after V1's second round but before V2's:
        round callbacks have fired without completing the target."""
        deadline = units.ms(125)

        def scenario():
            made = []
            r = run_multi_vm(nas_spec_mix(made), scheduler="credit",
                             measure_rounds=2, deadline_cycles=deadline,
                             on_deadline="return")
            assert not r.finished
            assert set(r.round_seconds) == {"V1"}
            assert made[0].kernel.sim.now == deadline
            return multi_vm_outcome(r, made)

        on, off = run_both_ways(scenario)
        assert on == off

    def test_met_round_target_runs_no_event(self):
        def scenario():
            tb = SimTestbed(scheduler="credit", seed=1)
            tb.add_vm("V1", workload=NasBenchmark.by_name(
                "EP", scale=0.05, rounds=2))
            assert tb.run_until_rounds(0)
            assert tb.sim.events_executed == 0
            assert tb.run_until_rounds(1, deadline_cycles=units.seconds(5))
            reached = (tb.sim.now, tb.sim.events_executed)
            assert tb.run_until_rounds(1)
            assert (tb.sim.now, tb.sim.events_executed) == reached
            return reached

        on, off = run_both_ways(scenario)
        assert on == off

    def test_superseded_callbacks_never_stop_a_later_drive(self):
        """Each drive call leaves its callbacks registered.  A callback
        from an earlier call whose own condition has since come true must
        not stop a later call of either kind: the generation token is
        shared by both drivers."""
        def scenario():
            tb = SimTestbed(scheduler="credit", seed=1,
                            sched_config=SchedulerConfig(
                                work_conserving=True))
            tb.add_vm("V1", workload=SpecCpuRateWorkload.by_name(
                "176.gcc", scale=0.05, rounds=2))
            tb.add_vm("V2", workload=NasBenchmark.by_name(
                "LU", scale=0.1, rounds=4))
            v1, v2 = tb.workloads["V1"], tb.workloads["V2"]
            # Leaves an on_all_done callback that turns true when V1
            # finishes, long before V2 completes its second round.
            assert not tb.run_until_workloads_done(
                ["V1"], deadline_cycles=units.ms(1))
            assert tb.run_until_rounds(2, deadline_cycles=units.seconds(5))
            assert v1.finished and v2.rounds_completed() == 2
            # Leaves on_round callbacks that are already true and fire
            # on every later V2 round.
            assert tb.run_until_workloads_done(
                ["V2"], deadline_cycles=units.seconds(5))
            assert v2.finished
            assert tb.sim.now == tb.guests["V2"].finished_at
            return tb.sim.now, tb.sim.events_executed

        on, off = run_both_ways(scenario)
        assert on == off


# --------------------------------------------------------------------- #
# Quiet holds: a lock hold whose completion is provably the next event
# runs inside the event that starts it (Simulator.advance_if_quiet)
# --------------------------------------------------------------------- #
HOLD = 10_000


@pytest.fixture
def quiet_calls(monkeypatch):
    """Every ``advance_if_quiet`` call as ``(clock before, t, answer)``.
    Only fast-forward dispatch asks; the step-wise path never does."""
    calls = []
    real = Simulator.advance_if_quiet

    def spy(sim, t):
        before = sim.now
        answer = real(sim, t)
        calls.append((before, t, answer))
        return answer

    monkeypatch.setattr(Simulator, "advance_if_quiet", spy)
    return calls


def run_to_stop(sim, kernel, sched, deadline=None):
    """The testbed driver's fused loop: stop when the workload is done."""
    kernel.on_all_done(sim.stop)
    sched.start()
    return sim.run_until_stopped(deadline=deadline)


class TestQuietHolds:
    def test_hold_ending_on_a_tick_is_not_elided(self, quiet_calls):
        """PCPU0's credit tick was armed long before the hold, so at the
        shared cycle the tick fires first and the hold takes the heap.
        The holds clear of any tick run in place."""
        def scenario():
            sim, trace, machine, sched, kernel = small_guest(num_vcpus=1)
            on_tick = []

            def program():
                for _ in range(6):
                    yield Compute(TICK - sim.now % TICK - HOLD)
                    on_tick.append(sim.now + HOLD)
                    yield Critical("L", HOLD)
                    yield Compute(3_333)
                    yield Critical("L", HOLD)

            kernel.spawn("edge", program(), vcpu_index=0)
            assert run_to_stop(sim, kernel, sched)
            assert all(t % TICK == 0 for t in on_tick)
            return guest_fingerprint(sim, kernel, *on_tick), on_tick

        on, off = run_both_ways(scenario)
        assert on == off
        on_tick = set(on[1])
        refused = {t for _, t, ok in quiet_calls if not ok}
        elided = {t for _, t, ok in quiet_calls if ok}
        assert on_tick <= refused and not on_tick & elided
        assert len(elided) == 6

    @pytest.mark.parametrize("past", [0, 1])
    def test_hold_ending_at_the_deadline(self, quiet_calls, past):
        """A hold ending on run_until_stopped's deadline completes inside
        the run, in place; one cycle past it, the hold stays pending and
        the clock stops on the deadline."""
        end = TICK // 4  # clear of both PCPUs' ticks

        def scenario():
            sim, trace, machine, sched, kernel = small_guest(num_vcpus=1)

            def program():
                yield Compute(end - HOLD - sim.now)
                yield Critical("L", HOLD)
                yield Compute(5_000)

            kernel.spawn("t", program(), vcpu_index=0)
            assert not run_to_stop(sim, kernel, sched, deadline=end - past)
            assert sim.now == end - past
            return guest_fingerprint(sim, kernel)

        on, off = run_both_ways(scenario)
        assert on == off
        assert [(t, ok) for _, t, ok in quiet_calls] == [(end, past == 0)]

    def test_run_for_windows_split_holds(self, quiet_calls):
        """``Testbed.run_for`` goes through ``run_until``, whose window
        end is the horizon: a hold that straddles it takes the heap and
        completes in the next window."""
        window = 99_991

        def scenario():
            tb = SimTestbed(scheduler="credit", seed=1)
            tb.add_vm("V1", workload=NasBenchmark.by_name("LU", scale=0.05))
            kernel = tb.guests["V1"]
            while not kernel.finished:
                tb.run_for(window)
            assert tb.sim.now % window == 0
            return guest_fingerprint(tb.sim, kernel)

        on, off = run_both_ways(scenario)
        assert on == off
        split = 0
        for before, t, ok in quiet_calls:
            window_end = -(-before // window) * window
            assert not (ok and t > window_end)
            split += t > window_end
        assert split and any(ok for _, _, ok in quiet_calls)

    def test_waiter_granted_inside_a_release_never_elides(self, quiet_calls):
        """The waiter is granted ``L`` inside the holder's release and
        runs on to ``M`` in that nested dispatch.  The holder still has
        work to do at the release cycle, so ``M``'s hold must take the
        heap: running it in place would start the holder's next compute
        late."""
        granted = []

        def scenario():
            sim, trace, machine, sched, kernel = small_guest()

            def holder():
                yield Compute(1_000)
                yield Critical("L", 50_000)
                yield Compute(10_000)

            def waiter():
                yield Compute(5_000)
                yield Critical("L", 0)
                granted.append(sim.now)
                yield Critical("M", 7_000)
                yield Compute(10_000)

            kernel.spawn("hold", holder(), vcpu_index=0)
            kernel.spawn("wait", waiter(), vcpu_index=1)
            assert run_to_stop(sim, kernel, sched)
            assert kernel.lock("L").contended_acquisitions == 1
            return guest_fingerprint(sim, kernel)

        on, off = run_both_ways(scenario)
        assert on == off
        assert granted[0] == granted[1]
        assert all(t != granted[0] + 7_000 for _, t, _ in quiet_calls)

    def test_barrier_bucket_holds(self, quiet_calls):
        def scenario():
            sim, trace, machine, sched, kernel = small_guest()
            kernel.barrier("B", parties=2)

            def program(t):
                for i in range(20):
                    yield Compute(3_000 + ((t + i) % 3) * 40_000)
                    yield BarrierOp("B")

            for t in range(2):
                kernel.spawn(f"b{t}", program(t), vcpu_index=t)
            assert run_to_stop(sim, kernel, sched)
            return guest_fingerprint(sim, kernel)

        on, off = run_both_ways(scenario)
        assert on == off
        assert any(ok for _, _, ok in quiet_calls)

    def test_last_task_finishes_inside_an_elided_hold(self, quiet_calls):
        """The final hold runs in place, so the workload completes, and
        ``stop()`` fires, inside the event that started the hold."""
        def scenario():
            sim, trace, machine, sched, kernel = small_guest(num_vcpus=1)

            def program():
                yield Compute(1_000)
                yield Critical("L", HOLD)

            kernel.spawn("t", program(), vcpu_index=0)
            assert run_to_stop(sim, kernel, sched)
            assert sim.now == kernel.finished_at
            return guest_fingerprint(sim, kernel), kernel.finished_at

        on, off = run_both_ways(scenario)
        assert on == off
        assert [(t, ok) for _, t, ok in quiet_calls] == [(on[1], True)]

    def test_most_uncontended_holds_run_in_place(self, quiet_calls):
        """Fails if elision silently stops happening: in a small LU cell
        most uncontended acquisitions' holds run in place."""
        set_fastforward(True)
        try:
            tb = SimTestbed(scheduler="credit", seed=1)
            tb.add_vm("V1", weight=weight_for_rate(0.4),
                      workload=NasBenchmark.by_name("LU", scale=0.05))
            assert tb.run_until_workloads_done(
                ["V1"], deadline_cycles=units.seconds(60))
        finally:
            set_fastforward(None)
        locks = tb.guests["V1"].locks.values()
        uncontended = sum(lk.acquisitions - lk.contended_acquisitions
                          for lk in locks)
        elided = sum(ok for _, _, ok in quiet_calls)
        assert elided > uncontended / 2, (elided, uncontended)


# --------------------------------------------------------------------- #
# The perf micro benches: coalesced Compute and a contended spinlock
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["compute_chain", "spinlock_storm"])
def test_perf_bench_bit_identical(name):
    """``compute_chain`` is all inline Compute dispatch with closed-form
    credit burns; ``spinlock_storm`` has eight tasks hammering one lock
    (spin batching, fused release micro-steps).  Both must simulate the
    same events to the same outcome on the step-wise paths."""
    on, off = run_both_ways(perf_benches[name])
    assert (on.fingerprint, on.events) == (off.fingerprint, off.events)


# --------------------------------------------------------------------- #
# The levers: environment parsing and the runtime override
# --------------------------------------------------------------------- #
class TestEscapeHatch:
    @pytest.mark.parametrize("value,enabled", [
        ("1", False), ("true", False), ("yes", False), ("on", False),
        ("TRUE", False), (" 1 ", False),
        ("", True), ("0", True), ("false", True), ("off", True),
        ("2", True),
    ])
    def test_env_parsing(self, monkeypatch, value, enabled):
        """The escape hatch is sampled at import time; re-execute the
        module under a controlled environment to pin the parse."""
        monkeypatch.setenv("REPRO_NO_FASTFORWARD", value)
        spec = importlib.util.spec_from_file_location(
            "_ff_probe", fastforward.__file__)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.fastforward_enabled() is enabled

    def test_env_disables_in_subprocess(self):
        """End to end: a fresh interpreter with REPRO_NO_FASTFORWARD=1
        reports fast-forward off."""
        src = pathlib.Path(fastforward.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["REPRO_NO_FASTFORWARD"] = "1"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.fastforward import fastforward_enabled;"
             "print(fastforward_enabled())"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_set_fastforward_overrides_and_resets(self):
        default = fastforward_enabled()
        try:
            set_fastforward(False)
            assert fastforward_enabled() is False
            set_fastforward(True)
            assert fastforward_enabled() is True
        finally:
            set_fastforward(None)
        assert fastforward_enabled() is default


# --------------------------------------------------------------------- #
# The algebra: closed_form_burn == SchedulerBase._debit
# --------------------------------------------------------------------- #
class TestClosedFormBurn:
    @pytest.mark.parametrize("elapsed", [1, 12_345, TICK, 7 * TICK + 13])
    @pytest.mark.parametrize("speed", [1.0, 0.5, 0.3])
    def test_debit_matches_closed_form(self, elapsed, speed):
        """Compute coalescing charges whole intervals with
        :func:`closed_form_burn`; the scheduler's exact-mode ``_debit``
        must apply bit-for-bit the same float arithmetic, degraded-PCPU
        divide included."""
        sim = Simulator()
        trace = TraceBus()
        machine = Machine(MachineConfig(num_pcpus=1, sockets=1), sim)
        cfg = SchedulerConfig(exact_accounting=True)
        sched = CreditScheduler(machine, sim, trace, cfg)
        from repro.vmm.vm import VM
        vm = VM(0, VMConfig(name="burn", num_vcpus=1), sim, trace)
        sched.add_vm(vm)
        vcpu = vm.vcpus[0]
        pcpu = machine[0]
        pcpu.speed_factor = speed
        vcpu.pcpu = pcpu

        sim.at(elapsed, lambda: None)
        sim.run()
        assert sim.now == elapsed

        before = vcpu.credit
        sched._debit_start[id(vcpu)] = 0
        sched._debit(vcpu)
        # Compare the resulting credit, not the recovered delta:
        # ``before - (before - debit)`` re-rounds and would hide (or
        # fake) a one-ulp divergence in the debit itself.
        burn = closed_form_burn(elapsed, cfg.credit_per_tick,
                                cfg.tick_cycles, speed)
        assert burn > 0
        assert vcpu.credit == before - burn
