"""Robustness experiment: the schedulers under injected faults.

The paper evaluates ASMan on a healthy testbed; this driver measures how
gracefully the adaptive loop degrades when its sensing and actuation
channels rot (see :mod:`repro.faults` and ``docs/robustness.md``).  For
every (fault class, scheduler) pair it reports

* **slowdown** — workload runtime relative to the *same scheduler's*
  faults-off baseline (so a fault class is charged only for its own
  damage, not for scheduler-to-scheduler differences);
* **co-online fraction** — of the time at least one of V1's VCPUs was
  online, how much had all of them online (the gang-quality metric);
* **fairness** — Jain's index over a two-VM mix under the same fault
  class (optional: the multi-VM cells dominate the batch's cost);
* **injected** — how many faults actually fired, so a vacuously clean
  row is visible as such.

The qualitative expectations, asserted by ``tests/test_faults.py``:
misreporting that pins VCRD LOW turns ASMan *exactly* into plain Credit
(no reports ever arrive, so the adaptive layer never acts); stuck-HIGH
turns it into static coscheduling-like behaviour; hypercall loss lands in
between; degraded PCPUs slow every scheduler but break none of the
credit invariants (run with ``--sanitize`` to enforce them).

Like the figure drivers, the experiment declares its full cell grid and
hands it to the parallel fabric; results are bit-identical at any job
count and cache under the composed (cell, fault) key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro import units
from repro.errors import ConfigurationError
from repro.experiments.runner import MultiVmResult, SingleVmResult
from repro.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - break the repro.parallel cycle
    from repro.parallel.cache import ResultCache
    from repro.parallel.cells import CellSpec

__all__ = ["FAULT_CLASSES", "QUICK_CLASSES", "RobustnessResult",
           "RobustnessRow", "robustness_report"]

Jobs = Optional[Union[int, str]]

#: The fault matrix: one representative spec per failure mode.  Rates
#: and magnitudes are deliberately harsh — the point is to bracket the
#: degradation, not to model a realistic error rate.
FAULT_CLASSES: Dict[str, FaultSpec] = {
    "none": FaultSpec(),
    "hypercall_loss": FaultSpec(hypercall_loss=0.5),
    "hypercall_delay": FaultSpec(hypercall_delay=1.0,
                                 hypercall_delay_cycles=units.ms(1)),
    "hypercall_dup": FaultSpec(hypercall_duplication=0.5),
    "ipi_drop": FaultSpec(ipi_drop=0.5),
    "ipi_jitter": FaultSpec(ipi_jitter_cycles=units.us(100)),
    "monitor_stuck_low": FaultSpec(monitor_mode="stuck_low"),
    "monitor_stuck_high": FaultSpec(monitor_mode="stuck_high"),
    "monitor_flip": FaultSpec(monitor_flip_period=units.ms(10)),
    "monitor_delay": FaultSpec(monitor_delay_cycles=units.ms(5)),
    "degraded_pcpu": FaultSpec(degraded_pcpus=(0, 1),
                               degraded_speed=0.5),
}

#: The smoke subset (`--quick` / CI): one class per fault site.
QUICK_CLASSES: Tuple[str, ...] = (
    "none", "hypercall_loss", "ipi_drop", "monitor_stuck_low",
    "degraded_pcpu",
)

#: Schedulers compared, in report order.
DEFAULT_SCHEDULERS: Tuple[str, ...] = ("credit", "con", "asman")


@dataclass
class RobustnessRow:
    """One (fault class, scheduler) point of the matrix."""

    fault_class: str
    scheduler: str
    runtime_seconds: float
    #: Runtime relative to the same scheduler's faults-off runtime.
    slowdown: float
    co_online: float
    fairness: Optional[float] = None
    finished: bool = True
    #: Total injections that actually fired across the row's runs.
    injected: int = 0


@dataclass
class RobustnessResult:
    """The full matrix plus the batch's determinism fingerprint."""

    description: str
    rows: List[RobustnessRow] = field(default_factory=list)
    fingerprint: Optional[str] = None

    def row(self, fault_class: str, scheduler: str) -> RobustnessRow:
        for r in self.rows:
            if r.fault_class == fault_class and r.scheduler == scheduler:
                return r
        raise ConfigurationError(
            f"no robustness row ({fault_class!r}, {scheduler!r})")

    def render(self) -> str:
        header = (f"{'fault class':<20} {'scheduler':<9} {'runtime_s':>9} "
                  f"{'slowdown':>8} {'co-online':>9} {'fairness':>8} "
                  f"{'injected':>8}")
        parts = [f"=== robustness: {self.description}", header,
                 "-" * len(header)]
        for r in self.rows:
            fairness = f"{r.fairness:8.3f}" if r.fairness is not None \
                else f"{'-':>8}"
            flag = "" if r.finished else "  (DEADLINE)"
            parts.append(
                f"{r.fault_class:<20} {r.scheduler:<9} "
                f"{r.runtime_seconds:9.2f} {r.slowdown:8.3f} "
                f"{r.co_online:9.3f} {fairness} {r.injected:8d}{flag}")
        if self.fingerprint is not None:
            parts.append(f"fingerprint: {self.fingerprint}")
        return "\n".join(parts)


# --------------------------------------------------------------------- #
def _resolve_classes(classes: Optional[Sequence[str]]) -> List[str]:
    if classes is None:
        return list(FAULT_CLASSES)
    out = []
    for name in classes:
        if name not in FAULT_CLASSES:
            raise ConfigurationError(
                f"unknown fault class {name!r}; "
                f"choose from {sorted(FAULT_CLASSES)}")
        out.append(name)
    if "none" not in out:
        out.insert(0, "none")  # the baseline row is not optional
    return out


def _cell_faults(spec: FaultSpec, seed: int) -> Optional[FaultSpec]:
    """The FaultSpec a cell carries: None for the pristine baseline,
    otherwise the class spec re-seeded per repetition so fault schedules
    decorrelate across seeds exactly like workload draws do."""
    if spec.is_noop():
        return None
    return replace(spec, seed=seed)


def robustness_report(workload: str = "LU", scale: float = 0.6,
                      rate: float = 2.0 / 9.0,
                      seeds: Sequence[int] = (1,),
                      schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
                      classes: Optional[Sequence[str]] = None,
                      fairness: bool = True,
                      fairness_scale: Optional[float] = None,
                      jobs: Jobs = None,
                      cache: Optional["ResultCache"] = None
                      ) -> RobustnessResult:
    """Run the fault matrix and aggregate the degradation report.

    ``rate`` defaults to the paper's 22.2% online rate — the regime where
    lock-holder preemption is harshest and the adaptive loop earns its
    keep, hence where sensor faults hurt the most.
    """
    from repro.parallel import (WorkloadSpec, multi_vm_cell, run_cells,
                                single_vm_cell)

    class_names = _resolve_classes(classes)
    wl = WorkloadSpec("nas", workload, scale=scale)
    single_grid: Dict[Tuple[str, str], List["CellSpec"]] = {}
    multi_grid: Dict[Tuple[str, str], List["CellSpec"]] = {}
    fscale = fairness_scale if fairness_scale is not None else scale / 2.0
    for cname in class_names:
        fspec = FAULT_CLASSES[cname]
        for sched in schedulers:
            single_grid[(cname, sched)] = [
                single_vm_cell(wl, sched, online_rate=rate, seed=seed,
                               faults=_cell_faults(fspec, seed),
                               collect_timeline=True, on_deadline="return")
                for seed in seeds]
            if fairness:
                fwl = WorkloadSpec("nas", workload, scale=fscale, rounds=2)
                multi_grid[(cname, sched)] = [
                    multi_vm_cell([("V1", fwl, True), ("V2", fwl, True)],
                                  sched, seed=seed, measure_rounds=1,
                                  faults=_cell_faults(fspec, seed),
                                  on_deadline="return")
                    for seed in seeds]
    batch = [c for cells in single_grid.values() for c in cells]
    batch += [c for cells in multi_grid.values() for c in cells]
    results = run_cells(batch, jobs=jobs, cache=cache)
    # The matrix aggregates every cell; supervision failures (timeouts,
    # exhausted retries) must abort with a structured error rather than
    # average CellFailure placeholders into the degradation numbers.
    results.raise_if_failed()

    report = RobustnessResult(
        description=f"{workload} scale={scale} rate={rate:.3f} "
                    f"seeds={tuple(seeds)}")
    baselines: Dict[str, float] = {}
    for cname in class_names:
        for sched in schedulers:
            singles = [results.value(c) for c in single_grid[(cname, sched)]]
            assert all(isinstance(r, SingleVmResult) for r in singles)
            runtime = sum(r.runtime_seconds for r in singles) / len(singles)
            co = sum(r.co_online_fraction or 0.0
                     for r in singles) / len(singles)
            injected = sum(sum((r.fault_stats or {}).values())
                           for r in singles)
            finished = all(r.finished for r in singles)
            fair: Optional[float] = None
            if fairness:
                multis = [results.value(c)
                          for c in multi_grid[(cname, sched)]]
                assert all(isinstance(r, MultiVmResult) for r in multis)
                fair = sum(r.fairness_jains for r in multis) / len(multis)
                injected += sum(sum((r.fault_stats or {}).values())
                                for r in multis)
                finished = finished and all(r.finished for r in multis)
            if cname == "none":
                baselines[sched] = runtime
            base = baselines.get(sched, runtime)
            report.rows.append(RobustnessRow(
                fault_class=cname, scheduler=sched,
                runtime_seconds=runtime,
                slowdown=runtime / base if base > 0 else float("inf"),
                co_online=co, fairness=fair, finished=finished,
                injected=injected))
    report.fingerprint = results.combined_fingerprint()
    return report
