"""Scenario runners: single-VM sweeps, multi-VM mixes, SPECjbb windows.

These reproduce the paper's three experimental methodologies:

* **Single VM** (Section 5.2): one guest VM V1 (4 VCPUs) plus an idle
  Domain-0, non-work-conserving mode, V1's weight swept over
  256/128/64/32 to hit online rates 100/66.7/40/22.2%.
* **Multiple VMs** (Section 5.3): 4 or 6 guest VMs (4 VCPUs each, weight
  256) plus Domain-0, work-conserving mode; each benchmark loops and the
  first completed rounds are averaged while all neighbours stay loaded.
* **SPECjbb window**: a fixed measurement window with warehouse counters.

Deadline policy: a run that exhausts its simulated-time budget either
raises :class:`~repro.errors.SimulationError` (``on_deadline="raise"``,
the default) or returns a structured result with ``finished=False``
(``on_deadline="return"``).  The structured form is pickle-friendly, so
a timed-out cell crossing a process-pool boundary reports *what* timed
out instead of poisoning the whole batch.

Batch execution: :func:`repro.parallel.run_cells` runs a list of
declarative :class:`~repro.parallel.cells.CellSpec` on the parallel
experiment fabric (process pool + content-addressed result cache) and
merges the results deterministically — see :mod:`repro.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.config import SchedulerConfig
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.setup import Testbed, weight_for_rate
from repro.faults import FaultSpec
from repro.metrics.fairness import FairnessReport
from repro.metrics.timeline import TimelineCollector
from repro.workloads.base import Workload
from repro.workloads.specjbb import SpecJbbWorkload

#: The paper's four VCPU online rates (Section 5.2).
PAPER_RATES: Tuple[float, ...] = (1.0, 2.0 / 3.0, 0.4, 2.0 / 9.0)

#: Hard ceiling on simulated time; a run that hits it is reported failed
#: rather than looping forever (a scheduler bug would otherwise hang).
DEFAULT_DEADLINE = units.seconds(240)

#: SPECjbb measurement defaults (Figure 10's fixed window).
DEFAULT_SPECJBB_WINDOW = units.seconds(2)
DEFAULT_SPECJBB_WARMUP = units.ms(200)

WorkloadFactory = Callable[[], Workload]

#: One captured trace event: (time, category, payload).  Payloads are
#: canonicalised to plain JSON-stable data so results stay picklable and
#: fingerprint-stable across processes (the golden-trace contract).
TraceEvent = Tuple[int, str, Dict[str, object]]


def _check_on_deadline(on_deadline: str) -> None:
    if on_deadline not in ("raise", "return"):
        raise ConfigurationError(
            f"on_deadline must be 'raise' or 'return', got {on_deadline!r}")


def _captured_trace(tb: Testbed,
                    collect_trace: Sequence[str]) -> Optional[List[TraceEvent]]:
    """Serialise retained trace records into canonical event tuples."""
    if not collect_trace:
        return None
    from repro.parallel.cells import canonical_value
    wanted = set(collect_trace)
    events: List[TraceEvent] = []
    for rec in tb.trace.records:
        if rec.category not in wanted:
            continue
        payload = canonical_value(rec.payload)
        assert isinstance(payload, dict)
        events.append((rec.time, rec.category, payload))
    return events


@dataclass
class SingleVmResult:
    """Outcome of one single-VM run.

    ``finished=False`` marks a run that hit its deadline: runtime fields
    then cover the simulated time actually executed, and the spinlock
    statistics summarise the truncated run.
    """

    scheduler: str
    online_rate: float
    weight: int
    runtime_cycles: int
    runtime_seconds: float
    measured_online_rate: float
    spin_summary: Dict[str, float]
    spin_scatter: List[Tuple[int, float]]
    over_threshold_times: List[int]
    monitor_stats: Optional[Dict[str, int]] = None
    vcrd_changes: int = 0
    finished: bool = True
    #: Simulator events executed — the perf fabric's throughput unit.
    events_executed: int = 0
    #: Fraction of V1's any-online time with *all* VCPUs online; only
    #: populated when the run was asked to ``collect_timeline``.
    co_online_fraction: Optional[float] = None
    #: Fault-injection counters (None when the run had no fault spec).
    fault_stats: Optional[Dict[str, int]] = None
    #: Captured trace events, only when the run was asked to
    #: ``collect_trace`` specific categories (golden-trace recording).
    trace_events: Optional[List[TraceEvent]] = None

    def raise_if_unfinished(self) -> "SingleVmResult":
        if not self.finished:
            raise SimulationError(
                f"single-VM run ({self.scheduler}, "
                f"rate={self.online_rate:.3f}) did not finish within "
                f"{self.runtime_seconds:.0f} simulated seconds")
        return self


def run_single_vm(workload_factory: WorkloadFactory,
                  scheduler: str = "credit",
                  online_rate: float = 1.0,
                  seed: int = 1,
                  num_pcpus: int = 8,
                  num_vcpus: int = 4,
                  deadline_cycles: int = DEFAULT_DEADLINE,
                  collect_scatter: bool = False,
                  sched_config: Optional[SchedulerConfig] = None,
                  on_deadline: str = "raise",
                  faults: Optional[FaultSpec] = None,
                  collect_timeline: bool = False,
                  collect_trace: Sequence[str] = ()) -> SingleVmResult:
    """Section 5.2's scenario: V1 + idle Domain-0, NWC mode."""
    _check_on_deadline(on_deadline)
    weight = weight_for_rate(online_rate, num_pcpus=num_pcpus,
                             num_vcpus=num_vcpus)
    cfg = sched_config if sched_config is not None \
        else SchedulerConfig(work_conserving=False)
    tb = Testbed(scheduler=scheduler, num_pcpus=num_pcpus, seed=seed,
                 sched_config=cfg, faults=faults)
    if collect_trace:
        tb.trace.retain(*collect_trace)
    timeline = TimelineCollector(tb.trace, tb.sim) if collect_timeline \
        else None
    tb.add_domain0()
    workload = workload_factory()
    vm = tb.add_vm("V1", num_vcpus=num_vcpus, weight=weight,
                   workload=workload, concurrent_hint=True)
    finished = tb.run_until_workloads_done(["V1"],
                                           deadline_cycles=deadline_cycles)
    if not finished and on_deadline == "raise":
        raise SimulationError(
            f"single-VM run ({scheduler}, rate={online_rate:.3f}) did not "
            f"finish within {units.to_seconds(deadline_cycles):.0f} "
            f"simulated seconds")
    stats = tb.spin_stats("V1")
    monitor = tb.monitors.get("V1")
    end_cycle = tb.guests["V1"].finished_at if finished else tb.sim.now
    co_online: Optional[float] = None
    if timeline is not None:
        timeline.close()
        co_online = timeline.co_online_fraction("V1", parties=num_vcpus)
    return SingleVmResult(
        scheduler=scheduler,
        online_rate=online_rate,
        weight=weight,
        runtime_cycles=end_cycle,
        runtime_seconds=units.to_seconds(end_cycle),
        measured_online_rate=tb.measured_online_rate("V1"),
        spin_summary=stats.summary(),
        spin_scatter=stats.scatter() if collect_scatter else [],
        over_threshold_times=stats.over_threshold_times(),
        monitor_stats=monitor.stats() if monitor else None,
        vcrd_changes=vm.vcrd_changes,
        finished=finished,
        events_executed=tb.sim.events_executed,
        co_online_fraction=co_online,
        fault_stats=tb.faults.stats() if tb.faults is not None else None,
        trace_events=_captured_trace(tb, collect_trace),
    )


@dataclass
class MultiVmResult:
    """Outcome of one multi-VM mix.

    On an unfinished run (``finished=False``), ``round_seconds`` holds
    only the VMs that completed ``rounds_measured`` rounds before the
    deadline; ``labels`` always covers every VM.
    """

    scheduler: str
    #: vm name -> mean round time in seconds (the paper's averaged run time).
    round_seconds: Dict[str, float] = field(default_factory=dict)
    #: vm name -> workload label (e.g. "nas.lu", "speccpu.176.gcc").
    labels: Dict[str, str] = field(default_factory=dict)
    rounds_measured: int = 0
    fairness_jains: float = 1.0
    finished: bool = True
    events_executed: int = 0
    #: Fault-injection counters (None when the run had no fault spec).
    fault_stats: Optional[Dict[str, int]] = None
    #: Captured trace events (``collect_trace`` categories), else None.
    trace_events: Optional[List[TraceEvent]] = None

    def raise_if_unfinished(self) -> "MultiVmResult":
        if not self.finished:
            raise SimulationError(
                f"multi-VM run ({self.scheduler}) did not reach "
                f"{self.rounds_measured} rounds before its deadline")
        return self


def run_multi_vm(assignments: Sequence[Tuple[str, WorkloadFactory, bool]],
                 scheduler: str = "credit",
                 seed: int = 1,
                 num_pcpus: int = 8,
                 num_vcpus: int = 4,
                 measure_rounds: int = 2,
                 deadline_cycles: int = DEFAULT_DEADLINE,
                 sched_config: Optional[SchedulerConfig] = None,
                 on_deadline: str = "raise",
                 faults: Optional[FaultSpec] = None,
                 collect_trace: Sequence[str] = ()) -> MultiVmResult:
    """Section 5.3's scenario: several weight-256 VMs, WC mode.

    ``assignments`` is a list of (vm_name, workload_factory, concurrent)
    triples; ``concurrent`` marks the VM for the CON scheduler.  Every
    workload must have been built with enough ``rounds`` that it is still
    running when the slowest VM completes ``measure_rounds`` rounds —
    exactly the paper's batch-program methodology.
    """
    _check_on_deadline(on_deadline)
    if not assignments:
        raise ConfigurationError("need at least one VM assignment")
    cfg = sched_config if sched_config is not None \
        else SchedulerConfig(work_conserving=True)
    tb = Testbed(scheduler=scheduler, num_pcpus=num_pcpus, seed=seed,
                 sched_config=cfg, faults=faults)
    if collect_trace:
        tb.trace.retain(*collect_trace)
    tb.add_domain0()
    workloads: Dict[str, Workload] = {}
    for name, factory, concurrent in assignments:
        wl = factory()
        if wl.rounds < measure_rounds + 1:
            raise ConfigurationError(
                f"workload for {name} has rounds={wl.rounds}; needs at "
                f"least measure_rounds+1={measure_rounds + 1} so neighbours "
                f"stay loaded during measurement")
        tb.add_vm(name, num_vcpus=num_vcpus, weight=256, workload=wl,
                  concurrent_hint=concurrent)
        workloads[name] = wl
    done = tb.run_until_rounds(measure_rounds,
                               deadline_cycles=deadline_cycles)
    if not done and on_deadline == "raise":
        raise SimulationError(
            f"multi-VM run ({scheduler}) did not reach {measure_rounds} "
            f"rounds within {units.to_seconds(deadline_cycles):.0f} "
            f"simulated seconds")
    result = MultiVmResult(scheduler=scheduler,
                           rounds_measured=measure_rounds,
                           finished=done,
                           events_executed=tb.sim.events_executed,
                           fault_stats=tb.faults.stats()
                           if tb.faults is not None else None,
                           trace_events=_captured_trace(tb, collect_trace))
    for name, wl in workloads.items():
        result.labels[name] = wl.name
        if wl.rounds_completed() >= measure_rounds:
            result.round_seconds[name] = units.to_seconds(
                int(wl.mean_round_cycles(measure_rounds)))
    # Fairness check over the guest VMs (Domain-0 is idle).
    guests = [tb.vms[n] for n, _, _ in assignments]
    if tb.sim.now > 0:
        report = FairnessReport(guests, tb.sim.now, len(tb.machine))
        result.fairness_jains = report.jains()
    return result


@dataclass
class SpecJbbResult:
    scheduler: str
    online_rate: float
    warehouses: int
    bops: float
    window_seconds: float
    events_executed: int = 0


def run_specjbb(warehouses: int,
                scheduler: str = "credit",
                online_rate: float = 1.0,
                window_cycles: int = DEFAULT_SPECJBB_WINDOW,
                warmup_cycles: int = DEFAULT_SPECJBB_WARMUP,
                seed: int = 1,
                num_pcpus: int = 8,
                num_vcpus: int = 4,
                sched_config: Optional[SchedulerConfig] = None,
                faults: Optional[FaultSpec] = None) -> SpecJbbResult:
    """Figure 10's scenario: V1 runs SPECjbb with W warehouses; bops are
    counted over a fixed window after a short warm-up."""
    weight = weight_for_rate(online_rate, num_pcpus=num_pcpus,
                             num_vcpus=num_vcpus)
    cfg = sched_config if sched_config is not None \
        else SchedulerConfig(work_conserving=False)
    tb = Testbed(scheduler=scheduler, num_pcpus=num_pcpus, seed=seed,
                 sched_config=cfg, faults=faults)
    tb.add_domain0()
    wl = SpecJbbWorkload(warehouses)
    tb.add_vm("V1", num_vcpus=num_vcpus, weight=weight, workload=wl,
              concurrent_hint=True)
    tb.run_for(warmup_cycles)
    before = wl.total_transactions()
    tb.run_for(window_cycles)
    after = wl.total_transactions()
    bops = (after - before) / units.to_seconds(window_cycles)
    return SpecJbbResult(scheduler=scheduler, online_rate=online_rate,
                         warehouses=warehouses, bops=bops,
                         window_seconds=units.to_seconds(window_cycles),
                         events_executed=tb.sim.events_executed)
