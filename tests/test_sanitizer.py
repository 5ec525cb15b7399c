"""Scheduler sanitizer: each invariant catches a deliberately-corrupted
scheduler state, clean runs stay silent, and the default path is unwired."""

import pytest

from repro.analysis import SanitizerViolation, SchedulerSanitizer
from repro.analysis import sanitize_enabled, set_sanitize
from repro.config import SchedulerConfig
from repro.experiments.setup import Testbed as SimTestbed
from repro.units import OVER_THRESHOLD_CYCLES
from repro.vmm.vm import VCRD
from repro.workloads.nas import NasBenchmark


def make_testbed(scheduler="credit", work_conserving=True, start=True,
                 **kwargs):
    """4-PCPU testbed with two workload-less VMs, sanitizer attached.

    ``start=False`` leaves the VCPUs RUNNABLE in their runqs (the null
    guests block them the moment they first run), which is the state the
    corruption tests need to poke at.
    """
    tb = SimTestbed(scheduler=scheduler, num_pcpus=4, seed=1,
                 sched_config=SchedulerConfig(
                     work_conserving=work_conserving),
                 sanitize=True, **kwargs)
    tb.add_vm("A", num_vcpus=2, weight=256)
    tb.add_vm("B", num_vcpus=2, weight=256)
    if start:
        tb.start()
    return tb


def first_pcpu(tb):
    return tb.machine[0]


class TestWiring:
    def test_testbed_attaches_everywhere(self):
        tb = SimTestbed(scheduler="credit", num_pcpus=4, sanitize=True)
        assert tb.scheduler.sanitizer is tb.sanitizer
        vm = tb.add_vm("W", num_vcpus=4,
                       workload=NasBenchmark.by_name("LU", scale=0.01))
        assert tb.guests["W"].sanitizer is tb.sanitizer
        assert vm is tb.vms["W"]

    def test_default_path_is_unwired(self):
        tb = SimTestbed(scheduler="credit", num_pcpus=2)
        assert tb.sanitizer is None
        assert tb.scheduler.sanitizer is None

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        tb = SimTestbed(scheduler="credit", num_pcpus=2)
        assert tb.sanitizer is not None

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        set_sanitize(False)
        try:
            assert not sanitize_enabled()
        finally:
            set_sanitize(None)
        assert sanitize_enabled()

    def test_cli_sanitize_ends_with_its_command(self, monkeypatch,
                                                 capsys):
        """An in-process ``--sanitize`` command must not leave the
        override behind: the run config salts the cache, so every later
        command would miss a default-filled cache."""
        from repro import cli
        from repro.parallel.cache import default_salt
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        salt = default_salt()
        assert cli.main(["run", "--workload", "LU", "--scale", "0.05",
                         "--no-cache", "--jobs", "1", "--sanitize"]) == 0
        capsys.readouterr()
        assert not sanitize_enabled()
        assert default_salt() == salt
        set_sanitize(False)
        try:
            cli.main(["run", "--workload", "LU", "--scale", "0.05",
                      "--no-cache", "--jobs", "1", "--sanitize"])
            assert not sanitize_enabled()  # the outer override survives
        finally:
            set_sanitize(None)

    def test_explicit_param_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        tb = SimTestbed(scheduler="credit", num_pcpus=2, sanitize=False)
        assert tb.sanitizer is None


class TestPlacementInvariant:
    def _run_manually(self, tb, vcpu, pcpu):
        """Install ``vcpu`` on ``pcpu`` bypassing the scheduler."""
        from repro.vmm.vm import VCPUState
        tb.scheduler._remove_from_runq(vcpu)
        vcpu.state = VCPUState.RUNNING
        vcpu.pcpu = pcpu
        pcpu.current = vcpu

    def test_vcpu_on_two_pcpus(self):
        tb = make_testbed(start=False)
        vcpu = tb.vms["A"].vcpus[0]
        self._run_manually(tb, vcpu, tb.machine[0])
        tb.machine[1].current = vcpu  # corrupt: second PCPU, same VCPU
        with pytest.raises(SanitizerViolation, match="placement"):
            tb.sanitizer.after_schedule(first_pcpu(tb))

    def test_broken_pcpu_linkage(self):
        tb = make_testbed(start=False)
        vcpu = tb.vms["A"].vcpus[0]
        self._run_manually(tb, vcpu, tb.machine[0])
        vcpu.pcpu = None  # corrupt: VCPU no longer points back
        with pytest.raises(SanitizerViolation, match="placement"):
            tb.sanitizer.after_schedule(first_pcpu(tb))


class TestRunqInvariant:
    def test_double_queued_vcpu(self):
        tb = make_testbed(start=False)
        sched = tb.scheduler
        queued = next(v for rq in sched.runqs.values() for v in rq)
        foreign = next(pid for pid in sched.runqs
                       if pid != queued.home_pcpu_id)
        sched.runqs[foreign].append(queued)  # bypass _enqueue
        sched._queued += 1
        with pytest.raises(SanitizerViolation):
            tb.sanitizer.after_schedule(first_pcpu(tb))

    def test_counter_desync(self):
        tb = make_testbed()
        tb.scheduler._queued += 1
        with pytest.raises(SanitizerViolation, match="_queued"):
            tb.sanitizer.after_schedule(first_pcpu(tb))


class TestCreditConservation:
    def test_credit_injection_between_assigns(self):
        tb = make_testbed()
        tb.vms["A"].vcpus[0].credit += 1_000.0
        with pytest.raises(SanitizerViolation,
                           match="credit conservation"):
            tb.sanitizer.after_schedule(first_pcpu(tb))

    def test_debits_are_fine(self):
        tb = make_testbed()
        tb.vms["A"].vcpus[0].credit -= 50.0
        tb.sanitizer.after_schedule(first_pcpu(tb))
        assert tb.sanitizer.violations == []

    def test_watermark_ratchets_down(self):
        tb = make_testbed()
        vcpu = tb.vms["A"].vcpus[0]
        vcpu.credit -= 50.0
        tb.sanitizer.after_schedule(first_pcpu(tb))
        vcpu.credit += 40.0  # refill below the period-start total
        with pytest.raises(SanitizerViolation,
                           match="credit conservation"):
            tb.sanitizer.after_schedule(first_pcpu(tb))

    def test_legitimate_assignment_rebaselines(self):
        tb = make_testbed()
        tb.scheduler.assign_credits()  # raises totals; hook rebaselines
        tb.sanitizer.after_schedule(first_pcpu(tb))
        assert tb.sanitizer.violations == []

    def test_hotplug_rebaselines(self):
        tb = make_testbed()
        tb.add_vm("C", num_vcpus=2, weight=128)  # injects initial credit
        tb.sanitizer.after_schedule(first_pcpu(tb))
        tb.remove_vm("C")
        tb.sanitizer.after_schedule(first_pcpu(tb))
        assert tb.sanitizer.violations == []

    def test_overdrawn_assignment_caught(self):
        tb = make_testbed()
        sched = tb.scheduler
        for vm in sched.vms:
            for v in vm.vcpus:
                v.credit = 1e9  # far beyond the Algorithm 3 clip ceiling
        with pytest.raises(SanitizerViolation, match="ceiling"):
            tb.sanitizer.note_assign()


class TestGangAtomicity:
    def test_mixed_park_state_in_gang(self):
        tb = make_testbed(scheduler="asman", work_conserving=False)
        vm = tb.vms["A"]
        vm.vcrd = VCRD.HIGH  # bypass set_vcrd: no repark happens
        vm.vcpus[0].parked = True
        vm.vcpus[1].parked = False
        with pytest.raises(SanitizerViolation, match="gang atomicity"):
            tb.sanitizer.after_schedule(first_pcpu(tb))

    def test_uniform_park_state_ok(self):
        tb = make_testbed(scheduler="asman", work_conserving=False)
        vm = tb.vms["A"]
        vm.vcrd = VCRD.HIGH
        for v in vm.vcpus:
            v.parked = True
        tb.sanitizer.after_schedule(first_pcpu(tb))
        assert tb.sanitizer.violations == []

    def test_stale_gang_window_after_vcrd_drop(self):
        tb = make_testbed(scheduler="asman")
        vm = tb.vms["A"]
        # Corrupt: open a gang window for a VM that is not coscheduled.
        tb.scheduler._gang_until[vm.id] = tb.sim.now + 10_000
        with pytest.raises(SanitizerViolation, match="gang window"):
            tb.sanitizer.after_schedule(first_pcpu(tb))

    def test_stale_boost_after_vcrd_drop(self):
        tb = make_testbed(scheduler="asman")
        tb.vms["A"].vcpus[0].boosted = True
        with pytest.raises(SanitizerViolation, match="boost"):
            tb.sanitizer.after_schedule(first_pcpu(tb))

    def test_proper_vcrd_transition_is_clean(self):
        tb = make_testbed(scheduler="asman", work_conserving=False)
        vm = tb.vms["A"]
        vm.set_vcrd(VCRD.HIGH)   # relocation + gang repark + schedules
        vm.set_vcrd(VCRD.LOW)    # tears down window and boosts
        tb.sanitizer.after_schedule(first_pcpu(tb))
        assert tb.sanitizer.violations == []

    def test_credit_scheduler_never_gangs(self):
        tb = make_testbed(scheduler="credit")
        assert not tb.scheduler._wants_cosched(tb.vms["A"])


class TestLhpProvenance:
    def _all_online(self, tb, vm, since=0):
        """Force every VCPU of ``vm`` to look continuously online since
        ``since`` (test-only corruption of the accounting fields)."""
        from repro.vmm.vm import VCPUState
        for i, v in enumerate(vm.vcpus):
            v.state = VCPUState.RUNNING
            v._online_since = since

    def test_over_threshold_spin_with_no_preemption_is_flagged(self):
        tb = make_testbed()
        vm = tb.vms["A"]
        tb.sim.run_until(tb.sim.now + 4 * OVER_THRESHOLD_CYCLES)
        self._all_online(tb, vm, since=0)
        lock = type("L", (), {"name": "runqueue"})()
        wait = OVER_THRESHOLD_CYCLES + 1
        with pytest.raises(SanitizerViolation, match="LHP provenance"):
            tb.sanitizer.note_spin_wait(vm, lock, wait)

    def test_offline_vcpu_explains_the_wait(self):
        tb = make_testbed()
        vm = tb.vms["A"]
        tb.sim.run_until(tb.sim.now + 4 * OVER_THRESHOLD_CYCLES)
        self._all_online(tb, vm, since=0)
        vm.vcpus[1]._online_since = None  # one sibling offline: LHP
        lock = type("L", (), {"name": "runqueue"})()
        tb.sanitizer.note_spin_wait(vm, lock, OVER_THRESHOLD_CYCLES + 1)
        assert tb.sanitizer.violations == []

    def test_late_online_vcpu_explains_the_wait(self):
        tb = make_testbed()
        vm = tb.vms["A"]
        tb.sim.run_until(tb.sim.now + 4 * OVER_THRESHOLD_CYCLES)
        self._all_online(tb, vm, since=0)
        # Came online only halfway through the wait window.
        vm.vcpus[1]._online_since = tb.sim.now - OVER_THRESHOLD_CYCLES // 2
        lock = type("L", (), {"name": "runqueue"})()
        tb.sanitizer.note_spin_wait(vm, lock, OVER_THRESHOLD_CYCLES + 1)
        assert tb.sanitizer.violations == []

    def test_under_threshold_wait_never_checked(self):
        tb = make_testbed()
        vm = tb.vms["A"]
        self._all_online(tb, vm, since=0)
        lock = type("L", (), {"name": "runqueue"})()
        tb.sanitizer.note_spin_wait(vm, lock, OVER_THRESHOLD_CYCLES)
        assert tb.sanitizer.violations == []
        assert tb.sanitizer.spin_waits_checked == 1


class TestModes:
    def test_non_strict_records_instead_of_raising(self):
        tb = make_testbed()
        san = SchedulerSanitizer(tb.scheduler, strict=False)
        tb.scheduler.sanitizer = san
        tb.vms["A"].vcpus[0].credit += 1_000.0
        san.after_schedule(first_pcpu(tb))
        assert len(san.violations) == 1
        assert "credit conservation" in san.violations[0]

    def test_stats_counters(self):
        tb = make_testbed()
        tb.sanitizer.after_schedule(first_pcpu(tb))
        s = tb.sanitizer.stats()
        assert s["schedules_checked"] >= 1
        assert s["violations"] == 0

    def test_violation_is_scheduler_invariant_error(self):
        from repro.errors import SchedulerInvariantError
        assert issubclass(SanitizerViolation, SchedulerInvariantError)


class TestCleanRuns:
    @pytest.mark.parametrize("sched", ["credit", "asman", "con", "relaxed"])
    def test_lu_run_is_violation_free(self, sched):
        from repro import units
        tb = SimTestbed(scheduler=sched, seed=1, sanitize=True,
                     sched_config=SchedulerConfig(work_conserving=False))
        tb.add_domain0()
        tb.add_vm("V1", weight=64,
                  workload=NasBenchmark.by_name("LU", scale=0.02),
                  concurrent_hint=True)
        done = tb.run_until_workloads_done(
            ["V1"], deadline_cycles=units.seconds(600))
        assert done
        assert tb.sanitizer.violations == []
        assert tb.sanitizer.schedules_checked > 0
        assert tb.sanitizer.spin_waits_checked > 0

    def test_sanitizer_does_not_change_the_outcome(self):
        from repro import units
        results = []
        for sanitize in (False, True):
            tb = SimTestbed(scheduler="asman", seed=7, sanitize=sanitize)
            tb.add_domain0()
            tb.add_vm("V1", weight=64,
                      workload=NasBenchmark.by_name("LU", scale=0.02))
            tb.run_until_workloads_done(
                ["V1"], deadline_cycles=units.seconds(600))
            results.append((tb.guests["V1"].finished_at,
                            tb.sim.events_executed))
        assert results[0] == results[1]
