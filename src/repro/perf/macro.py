"""Macro-benchmarks: timed runs of real paper testbeds.

These measure the engine *as the figures use it* — full guest kernels,
schedulers, monitors and trace collectors.  Each reports the simulator's
events/second over the wall-clock run plus a fingerprint of the
simulated outcome (completion cycle, event count, spinlock statistics),
so the perf gate doubles as a same-seed determinism gate.

Timings here are only comparable between runs with the same
determinism-relevant configuration: a sanitizer-on run re-validates
every scheduling pass and a fast-forward-off run takes the step-wise
dispatch paths, so both are deliberately slower while producing the
same fingerprints.  Baselines are therefore stamped with
:func:`repro.perf.harness.run_config` and
:func:`~repro.perf.harness.check_against_baseline` refuses a stamp
mismatch instead of comparing incompatible configs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import units
from repro.config import SchedulerConfig
from repro.experiments.setup import Testbed, weight_for_rate
from repro.perf.harness import (BenchResult, bench, fingerprint_of,
                                result_from_sim, timed)
from repro.workloads.nas import NasBenchmark
from repro.workloads.speccpu import SpecCpuRateWorkload


@bench("fig07_lu_testbed")
def fig07_lu_testbed(quick: bool = False) -> BenchResult:
    """The Figure 7 scenario: LU in a 4-VCPU VM at a 40% online rate
    (plus idle Domain-0, non-work-conserving), under Credit and ASMan."""
    scale = 0.2 if quick else 0.4
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


@bench("parallel_scaling")
def parallel_scaling(quick: bool = False) -> BenchResult:
    """The parallel experiment fabric under load: a fixed Fig-7-style
    batch of single-VM LU cells run at increasing ``--jobs`` levels, plus
    the content-addressed cache's cold/warm round-trip.

    ``extra`` records ``speedup_j<N>`` (serial wall over N-way wall — on
    a 1-core host these sit below 1.0 from spawn overhead, on an 8-core
    host ``speedup_j8`` should exceed 3.0) and ``cache_cold_s`` /
    ``cache_warm_s`` (a warm rerun must cost <10% of cold).  Speedups are
    host-dependent, so this bench is deliberately *not* in the committed
    events/sec baseline; the fingerprint, which every jobs level must
    reproduce identically, is the portable part.
    """
    import shutil
    import tempfile

    from repro.experiments.runner import SingleVmResult
    from repro.parallel import (ResultCache, RunContext, WorkloadSpec,
                                run_cells, single_vm_cell, use_context)

    scale = 0.05 if quick else 0.15
    wl = WorkloadSpec("nas", "LU", scale=scale)
    cells = [single_vm_cell(wl, scheduler=sched, online_rate=rate, seed=seed)
             for sched in ("credit", "asman")
             for rate in (1.0, 0.4)
             for seed in (1, 2)]
    levels = (1, 2) if quick else (1, 2, 4, 8)

    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        walls: Dict[int, float] = {}
        fingerprint_hex: Optional[str] = None
        events = 0
        for jobs in levels:
            def drive(jobs: int = jobs) -> int:
                # Cold timings: a default context never touches a cache.
                with use_context(RunContext()):
                    results = run_cells(cells, jobs=jobs)
                nonlocal fingerprint_hex
                combined = results.combined_fingerprint()
                assert fingerprint_hex in (None, combined), \
                    "parallel run diverged from the serial reference"
                fingerprint_hex = combined
                total = 0
                for outcome in results:
                    value = outcome.value
                    assert isinstance(value, SingleVmResult)
                    total += value.events_executed
                return total

            walls[jobs], events = timed(drive)

        cache = ResultCache(tmp)
        cold, _ = timed(lambda: run_cells(cells, jobs=1, cache=cache)
                        and events)
        warm, _ = timed(lambda: run_cells(cells, jobs=1, cache=cache)
                        and events)
        assert cache.hits == len(cells), "warm rerun was not all-hit"

        extra = {f"speedup_j{j}": walls[levels[0]] / walls[j]
                 for j in levels[1:]}
        extra["cache_cold_s"] = cold
        extra["cache_warm_s"] = warm
        assert fingerprint_hex is not None
        return BenchResult(
            name="parallel_scaling",
            wall_s=walls[levels[0]],
            events=events,
            events_per_s=events / walls[levels[0]],
            peak_heap_entries=0,
            fingerprint=int(fingerprint_hex, 16),
            extra=extra,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@bench("fig11a_mix_testbed")
def fig11a_mix_testbed(quick: bool = False) -> BenchResult:
    """The Figure 11(a) scenario: bzip2 + gcc + SP + LU on four VMs plus
    Domain-0, work-conserving, under the Credit scheduler, run until every
    VM completes one measured round."""
    scale = 0.12 if quick else 0.25
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
