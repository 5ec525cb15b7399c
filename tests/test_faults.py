"""The fault-injection fabric: spec surface, determinism, degradation.

Covers the robustness acceptance criteria: faults-off runs are
bit-identical to a build without :mod:`repro.faults`; the same
(FaultSpec, seed) yields the same fingerprint at any job count; a
stuck-LOW monitor degrades ASMan exactly to plain credit; and no fault
class violates the Algorithm 3 invariants under the sanitizer.
"""

import dataclasses

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.experiments.robustness import (FAULT_CLASSES, QUICK_CLASSES,
                                          robustness_report)
from repro.experiments.runner import run_single_vm
from repro.experiments.setup import Testbed as SimTestbed
from repro.experiments.setup import weight_for_rate
from repro.faults import FaultInjector, FaultSpec, MONITOR_MODES
from repro.parallel import (RunContext, WorkloadSpec, result_fingerprint,
                            run_cells, single_vm_cell, use_context)
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.tracing import TraceBus
from repro.vmm.hypercall import HypercallTable
from repro.workloads.nas import NasBenchmark
from tests.conftest import reference_fingerprints

RATE = 2.0 / 9.0
LU = WorkloadSpec("nas", "LU", scale=0.3)


def _lu(scale: float = 0.3):
    return NasBenchmark.by_name("LU", scale=scale)


# --------------------------------------------------------------------- #
# FaultSpec: validation, parse/describe, no-op contract
# --------------------------------------------------------------------- #
class TestFaultSpec:
    def test_default_is_noop(self):
        spec = FaultSpec()
        assert spec.is_noop()
        assert spec.describe() == "none"

    def test_parse_empty_and_none(self):
        assert FaultSpec.parse("").is_noop()
        assert FaultSpec.parse("none").is_noop()

    def test_parse_describe_round_trip(self):
        spec = FaultSpec(hypercall_loss=0.25, ipi_jitter_cycles=1000,
                         monitor_mode="stuck_low",
                         degraded_pcpus=(0, 3), degraded_speed=0.5)
        assert FaultSpec.parse(spec.describe()) == spec

    def test_parse_degraded_pcpu_list(self):
        spec = FaultSpec.parse("degraded_pcpus=1+4+6,degraded_speed=0.25")
        assert spec.degraded_pcpus == (1, 4, 6)
        assert spec.degraded_speed == 0.25

    @pytest.mark.parametrize("text", [
        "hypercall_loss=1.5",               # probability out of range
        "ipi_drop=-0.1",
        "monitor_mode=flaky",               # unknown mode
        "hypercall_delay=0.5",              # delay without delay_cycles
        "degraded_pcpus=0",                 # degraded without a slow speed
        "degraded_speed=0.0",               # speed outside (0, 1]
        "no_such_field=1",
        "hypercall_loss",                   # missing '='
        "hypercall_loss=abc",
    ])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse(text)

    def test_monitor_modes_exported(self):
        assert set(MONITOR_MODES) == {"ok", "stuck_high", "stuck_low"}

    def test_spec_is_hashable_and_frozen(self):
        spec = FaultSpec(ipi_drop=0.5)
        assert hash(spec) == hash(FaultSpec(ipi_drop=0.5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.ipi_drop = 0.0  # type: ignore[misc]


# --------------------------------------------------------------------- #
# Cell composition: fault specs are part of the cache identity
# --------------------------------------------------------------------- #
class TestCellComposition:
    def test_faults_rekey_the_cell(self):
        clean = single_vm_cell(LU, "asman", online_rate=RATE, seed=1)
        f1 = single_vm_cell(LU, "asman", online_rate=RATE, seed=1,
                            faults=FaultSpec(ipi_drop=0.5))
        f2 = single_vm_cell(LU, "asman", online_rate=RATE, seed=1,
                            faults=FaultSpec(ipi_drop=0.5, seed=7))
        keys = {clean.cache_key("s"), f1.cache_key("s"), f2.cache_key("s")}
        assert len(keys) == 3  # clean vs faulted vs re-seeded faults

    def test_same_faults_same_key(self):
        a = single_vm_cell(LU, "asman", online_rate=RATE, seed=1,
                           faults=FaultSpec(hypercall_loss=0.5))
        b = single_vm_cell(LU, "asman", online_rate=RATE, seed=1,
                           faults=FaultSpec(hypercall_loss=0.5))
        assert a.cache_key("s") == b.cache_key("s")


# --------------------------------------------------------------------- #
# Injector determinism
# --------------------------------------------------------------------- #
class TestInjectorDeterminism:
    def _loss_run(self, fault_seed: int):
        sim = Simulator()
        trace = TraceBus()
        table = HypercallTable(sim, trace)
        inj = FaultInjector(FaultSpec(hypercall_loss=0.5, seed=fault_seed),
                            sim, trace, RngStreams(1))
        table.faults = inj
        delivered = []
        table.register(99, lambda: delivered.append(1) or 0)
        outcomes = [table.call(99) for _ in range(200)]
        return outcomes, len(delivered), inj.hypercalls_lost

    def test_same_fault_seed_same_schedule(self):
        assert self._loss_run(0) == self._loss_run(0)

    def test_fault_seed_decorrelates(self):
        a, _, _ = self._loss_run(0)
        b, _, _ = self._loss_run(1)
        assert a != b

    def test_loss_actually_drops(self):
        _, delivered, lost = self._loss_run(0)
        assert lost > 0 and delivered > 0
        assert delivered + lost == 200


# --------------------------------------------------------------------- #
# End-to-end determinism and the faults-off identity
# --------------------------------------------------------------------- #
class TestEndToEndDeterminism:
    def test_noop_spec_is_bit_identical_to_no_spec(self):
        clean = run_single_vm(_lu, scheduler="asman", online_rate=RATE,
                              seed=1)
        noop = run_single_vm(_lu, scheduler="asman", online_rate=RATE,
                             seed=1, faults=FaultSpec())
        assert result_fingerprint(clean) == result_fingerprint(noop)
        assert noop.fault_stats is None  # no injector was even built

    def test_faulted_run_repeats_exactly(self):
        spec = FaultSpec(hypercall_loss=0.5, ipi_drop=0.3,
                         ipi_jitter_cycles=units.us(50))
        a = run_single_vm(_lu, scheduler="asman", online_rate=RATE,
                          seed=1, faults=spec)
        b = run_single_vm(_lu, scheduler="asman", online_rate=RATE,
                          seed=1, faults=spec)
        assert result_fingerprint(a) == result_fingerprint(b)
        assert a.fault_stats == b.fault_stats
        assert sum(a.fault_stats.values()) > 0

    def test_job_count_invariance(self):
        wl = WorkloadSpec("nas", "LU", scale=0.15)
        cells = [
            single_vm_cell(wl, sched, online_rate=RATE, seed=1,
                           faults=faults)
            for sched in ("credit", "asman")
            for faults in (None, FaultSpec(hypercall_loss=0.5),
                           FaultSpec(monitor_mode="stuck_low"))
        ]
        fanned = run_cells(cells, jobs=2, cache=None)
        assert fanned.fingerprints() == reference_fingerprints(cells)


# --------------------------------------------------------------------- #
# Degradation semantics
# --------------------------------------------------------------------- #
class TestDegradation:
    def test_stuck_low_reduces_asman_to_plain_credit(self):
        """With every report pinned LOW the adaptive layer never fires a
        hypercall, so the scheduling trajectory is *exactly* credit's."""
        credit = run_single_vm(_lu, scheduler="credit", online_rate=RATE,
                               seed=1)
        broken = run_single_vm(_lu, scheduler="asman", online_rate=RATE,
                               seed=1,
                               faults=FaultSpec(monitor_mode="stuck_low"))
        assert broken.runtime_cycles == credit.runtime_cycles

    def test_stuck_high_forces_coscheduling(self):
        clean = run_single_vm(_lu, scheduler="asman", online_rate=RATE,
                              seed=1, collect_timeline=True)
        stuck = run_single_vm(_lu, scheduler="asman", online_rate=RATE,
                              seed=1, collect_timeline=True,
                              faults=FaultSpec(monitor_mode="stuck_high"))
        assert stuck.co_online_fraction > clean.co_online_fraction

    def test_degraded_pcpus_slow_the_run(self):
        clean = run_single_vm(_lu, scheduler="credit", online_rate=RATE,
                              seed=1)
        slow = run_single_vm(_lu, scheduler="credit", online_rate=RATE,
                             seed=1,
                             faults=FaultSpec(degraded_pcpus=(0, 1, 2, 3),
                                              degraded_speed=0.25))
        assert slow.runtime_cycles > clean.runtime_cycles

    def test_ipi_drops_are_counted(self):
        r = run_single_vm(_lu, scheduler="asman", online_rate=RATE,
                          seed=1, faults=FaultSpec(ipi_drop=1.0))
        assert r.fault_stats["ipis_dropped"] > 0


# --------------------------------------------------------------------- #
# Invariants hold under every fault class (--sanitize)
# --------------------------------------------------------------------- #
class TestSanitizedUnderFaults:
    def _run(self, scheduler: str, spec: FaultSpec) -> SimTestbed:
        tb = SimTestbed(scheduler=scheduler, seed=1, sanitize=True,
                     faults=spec)
        tb.add_domain0()
        tb.add_vm("V1", weight=weight_for_rate(RATE), workload=_lu(0.2))
        tb.run_until_workloads_done(["V1"],
                                    deadline_cycles=units.seconds(120))
        assert tb.sanitizer is not None
        assert tb.sanitizer.schedules_checked > 0
        assert tb.sanitizer.violations == []
        return tb

    def test_hypercall_fault_storm_keeps_credit_conservation(self):
        """Lost/duplicated do_vcrd_op calls must not break Algorithm 3:
        the credit pool is conserved no matter which VCRD updates the
        VMM actually saw."""
        tb = self._run("asman", FaultSpec(hypercall_loss=0.5,
                                          hypercall_duplication=0.2,
                                          monitor_flip_period=units.ms(5)))
        assert sum(tb.faults.stats().values()) > 0

    def test_ipi_faults_keep_gang_invariants(self):
        self._run("asman", FaultSpec(ipi_drop=0.5,
                                     ipi_jitter_cycles=units.us(100)))

    def test_degraded_pcpus_keep_invariants(self):
        self._run("credit", FaultSpec(degraded_pcpus=(0, 1),
                                      degraded_speed=0.5))


# --------------------------------------------------------------------- #
# The robustness experiment driver
# --------------------------------------------------------------------- #
class TestRobustnessReport:
    def test_quick_classes_are_a_subset(self):
        assert set(QUICK_CLASSES) <= set(FAULT_CLASSES)
        assert FAULT_CLASSES["none"].is_noop()

    def test_report_shape_and_baseline(self):
        with use_context(RunContext(jobs=1)):
            rep = robustness_report(workload="LU", scale=0.1, rate=RATE,
                                    seeds=(1,),
                                    schedulers=("credit", "asman"),
                                    classes=("none", "monitor_stuck_low"),
                                    fairness=False)
        assert len(rep.rows) == 4
        assert rep.fingerprint
        for sched in ("credit", "asman"):
            assert rep.row("none", sched).slowdown == 1.0
        # stuck-LOW never slows credit: it has no monitor to lie to.
        assert rep.row("monitor_stuck_low", "credit").slowdown == \
            pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            rep.row("none", "nope")

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            robustness_report(classes=("no_such_class",))

    def test_render_mentions_every_row(self):
        with use_context(RunContext(jobs=1)):
            rep = robustness_report(workload="LU", scale=0.1, rate=RATE,
                                    seeds=(1,), schedulers=("credit",),
                                    classes=("none",), fairness=False)
        text = rep.render()
        assert "fault class" in text and "credit" in text
        assert "fingerprint" in text
