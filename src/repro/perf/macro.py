"""Macro-benchmarks: timed runs of real paper testbeds.

These measure the engine *as the figures use it* — full guest kernels,
schedulers, monitors and trace collectors — at a reduced workload scale
(Fig 7's LU at 0.2, Fig 11(a)'s mix at 0.12).  Each reports the
simulator's events/second over the wall-clock run plus a fingerprint of
the simulated outcome (completion cycle, event count, spinlock
statistics), which the baseline check compares exactly.
"""

from __future__ import annotations

from repro import units
from repro.config import SchedulerConfig
from repro.experiments.setup import Testbed, weight_for_rate
from repro.perf.harness import (BenchResult, bench, fingerprint_of,
                                result_from_sim, timed)
from repro.workloads.nas import NasBenchmark
from repro.workloads.speccpu import SpecCpuRateWorkload


@bench("fig07_lu_testbed")
def fig07_lu_testbed() -> BenchResult:
    """The Figure 7 scenario: LU in a 4-VCPU VM at a 40% online rate
    (plus idle Domain-0, non-work-conserving), under Credit and ASMan."""
    scale = 0.2
    fp_parts = []
    events = 0
    peak = 0
    total_wall = 0.0
    last_sim = None
    for scheduler in ("credit", "asman"):
        tb = Testbed(scheduler=scheduler, num_pcpus=8, seed=1,
                     sched_config=SchedulerConfig(work_conserving=False))
        tb.add_domain0()
        tb.add_vm("V1", num_vcpus=4,
                  weight=weight_for_rate(0.4),
                  workload=NasBenchmark.by_name("LU", scale=scale),
                  concurrent_hint=True)

        def drive(tb: Testbed = tb) -> int:
            ok = tb.run_until_workloads_done(
                ["V1"], deadline_cycles=units.seconds(240))
            assert ok, "fig07 testbed did not finish"
            return tb.sim.events_executed

        wall, _ = timed(drive)
        total_wall += wall
        events += tb.sim.events_executed
        peak = max(peak, getattr(tb.sim, "peak_heap_entries", 0))
        stats = tb.spin_stats("V1").summary()
        fp_parts += [tb.guests["V1"].finished_at, tb.sim.events_executed,
                     int(stats["recorded"]), int(stats["over_2^20"])]
        last_sim = tb.sim
    result = result_from_sim(
        "fig07_lu_testbed", last_sim, total_wall,
        fingerprint=fingerprint_of(*fp_parts))
    result.events = events
    result.events_per_s = events / total_wall
    result.peak_heap_entries = peak
    return result


@bench("fig11a_mix_testbed")
def fig11a_mix_testbed() -> BenchResult:
    """The Figure 11(a) scenario: bzip2 + gcc + SP + LU on four VMs plus
    Domain-0, work-conserving, under the Credit scheduler, run until every
    VM completes one measured round."""
    scale = 0.12
    rounds = 8
    tb = Testbed(scheduler="credit", num_pcpus=8, seed=1,
                 sched_config=SchedulerConfig(work_conserving=True))
    tb.add_domain0()
    combo = [
        ("V1", SpecCpuRateWorkload.by_name("256.bzip2", scale=scale,
                                           rounds=rounds), False),
        ("V2", SpecCpuRateWorkload.by_name("176.gcc", scale=scale,
                                           rounds=rounds), False),
        ("V3", NasBenchmark.by_name("SP", scale=scale, rounds=rounds), True),
        ("V4", NasBenchmark.by_name("LU", scale=scale, rounds=rounds), True),
    ]
    for name, wl, concurrent in combo:
        tb.add_vm(name, num_vcpus=4, weight=256, workload=wl,
                  concurrent_hint=concurrent)
    tb.start()

    def drive() -> int:
        done = tb.run_until_rounds(1, deadline_cycles=units.seconds(240))
        assert done, "fig11a testbed did not reach a full round"
        return tb.sim.events_executed

    wall, _ = timed(drive)
    fp_parts = [tb.sim.now, tb.sim.events_executed]
    for name, wl, _ in combo:
        fp_parts.append(wl.rounds_completed())
        fp_parts.append(int(wl.mean_round_cycles(1)))
    return result_from_sim(
        "fig11a_mix_testbed", tb.sim, wall,
        fingerprint=fingerprint_of(*fp_parts))
