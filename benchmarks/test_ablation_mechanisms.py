"""Ablations: which mechanisms produce the Credit pathology?

DESIGN.md section 5 names the design decisions; these benches quantify
each one's contribution by toggling it and re-running the LU @ 22.2%
single-VM scenario.  (They document *our simulator's* causal structure —
the paper performs no such decomposition.)
"""

import pytest

from repro import units
from repro.config import GuestConfig, SchedulerConfig
from repro.experiments.setup import weight_for_rate
from repro.experiments.setup import Testbed as SimTestbed
from repro.workloads.nas import NasBenchmark

RATE = 2 / 9
SCALE = 0.5
SEEDS = (1, 2, 3)


def run_lu(scheduler="credit", guest_config=None, sched_config=None,
           seed=1, scale=SCALE, rate=RATE):
    tb = SimTestbed(scheduler=scheduler, seed=seed,
                 sched_config=sched_config
                 or SchedulerConfig(work_conserving=False))
    tb.add_domain0()
    wl = NasBenchmark.by_name("LU", scale=scale)
    tb.add_vm("V1", weight=weight_for_rate(rate), workload=wl,
              guest_config=guest_config, concurrent_hint=True)
    ok = tb.run_until_workloads_done(["V1"],
                                     deadline_cycles=units.seconds(240))
    assert ok
    return (units.to_seconds(tb.guests["V1"].finished_at),
            tb.spin_stats("V1").count_above(20))


def mean_runtime(**kw):
    rts = [run_lu(seed=s, **kw)[0] for s in SEEDS]
    return sum(rts) / len(rts)


def test_ablation_accounting_mode(benchmark):
    """Sampled (Xen-faithful) vs exact credit accounting: sampling noise
    desynchronises bursty VCPUs, so exact accounting should remove part
    of the excess slowdown."""

    def run():
        sampled = mean_runtime(
            sched_config=SchedulerConfig(work_conserving=False,
                                         exact_accounting=False))
        exact = mean_runtime(
            sched_config=SchedulerConfig(work_conserving=False,
                                         exact_accounting=True))
        return sampled, exact

    sampled, exact = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation accounting: sampled={sampled:.3f}s exact={exact:.3f}s")
    # Sampling must not make things dramatically better than exact.
    assert sampled >= exact * 0.9


def test_ablation_irq_asymmetry(benchmark):
    """VCPU0's interrupt load drives the persistent park-phase drift; with
    it disabled the Credit baseline's excess slowdown should shrink."""

    def run():
        with_irq = mean_runtime(guest_config=GuestConfig())
        without = mean_runtime(
            guest_config=GuestConfig(irq_interval_cycles=0))
        return with_irq, without

    with_irq, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation irq: with={with_irq:.3f}s without={without:.3f}s")
    assert without <= with_irq * 1.02


@pytest.mark.parametrize("spin_us", [50, 400, 1600])
def test_ablation_futex_spin_budget(benchmark, spin_us):
    """The guest's spin-then-block budget: longer budgets burn more CPU
    when windows misalign but avoid sleep/wake costs when aligned."""

    def run():
        return mean_runtime(guest_config=GuestConfig(
            futex_spin_cycles=units.us(spin_us)))

    rt = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation futex_spin={spin_us}us: runtime={rt:.3f}s")
    assert rt > 0


def test_ablation_dynamic_vs_static_cosched_fraction(benchmark):
    """ASMan's central claim: its coscheduled fraction tracks the
    workload, unlike CON's permanent coscheduling."""
    from repro.asman.vcrd import VcrdTracker

    def run():
        tb = SimTestbed(scheduler="asman", seed=1,
                     sched_config=SchedulerConfig(work_conserving=False))
        tracker = VcrdTracker(tb.trace, tb.sim)
        tb.add_domain0()
        lu = NasBenchmark.by_name("LU", scale=SCALE)
        tb.add_vm("V1", weight=weight_for_rate(RATE), workload=lu,
                  concurrent_hint=True)
        tb.run_until_workloads_done(
            ["V1"], deadline_cycles=units.seconds(240))
        lu_fraction = tracker.high_fraction("V1")

        tb2 = SimTestbed(scheduler="asman", seed=1,
                      sched_config=SchedulerConfig(work_conserving=False))
        tracker2 = VcrdTracker(tb2.trace, tb2.sim)
        tb2.add_domain0()
        ep = NasBenchmark.by_name("EP", scale=SCALE)
        tb2.add_vm("V1", weight=weight_for_rate(RATE), workload=ep,
                   concurrent_hint=True)
        tb2.run_until_workloads_done(
            ["V1"], deadline_cycles=units.seconds(240))
        ep_fraction = tracker2.high_fraction("V1")
        return lu_fraction, ep_fraction

    lu_frac, ep_frac = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation cosched fraction: LU={lu_frac:.3f} EP={ep_frac:.3f} "
          f"(CON would be 1.0 for both)")
    # EP never triggers coscheduling; LU's fraction is workload-driven.
    assert ep_frac == pytest.approx(0.0, abs=1e-6)
    assert lu_frac >= ep_frac


@pytest.mark.parametrize("cooldown_ms", [2, 10, 30])
def test_ablation_gang_slot_length(benchmark, cooldown_ms):
    """Coscheduling slot (fan-out cooldown) sweep under the mixed 4-VM
    scenario: too-short slots thrash, too-long slots starve neighbours."""
    from repro.experiments.runner import run_multi_vm
    from repro.workloads.speccpu import SpecCpuRateWorkload

    def run():
        # run_multi_vm builds its own config; reproduce it here with the
        # swept cooldown.
        cfg = SchedulerConfig(work_conserving=True,
                              cosched_cooldown_cycles=units.ms(cooldown_ms))
        tb = SimTestbed(scheduler="asman", seed=1, sched_config=cfg)
        tb.add_domain0()
        lu = NasBenchmark.by_name("LU", scale=0.3, rounds=30)
        bz = SpecCpuRateWorkload.by_name("256.bzip2", scale=0.4, rounds=30)
        tb.add_vm("V1", weight=256, workload=bz)
        tb.add_vm("V2", weight=256, workload=lu, concurrent_hint=True)
        ok = tb.run_until_rounds(2, deadline_cycles=units.seconds(240))
        assert ok
        return (bz.mean_round_cycles(2) / units.CYCLES_PER_S,
                lu.mean_round_cycles(2) / units.CYCLES_PER_S)

    bz_rt, lu_rt = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation gang slot {cooldown_ms}ms: "
          f"bzip2={bz_rt:.3f}s LU={lu_rt:.3f}s")
    assert bz_rt > 0 and lu_rt > 0
