"""Per-figure experiment drivers.

Every figure in the paper's evaluation (Figs 1-2, 7-12) has a ``fig*``
function here that runs the corresponding experiment and returns a
:class:`FigureResult` whose series mirror what the paper plots.  The
``benchmarks/`` tree wraps these in pytest-benchmark entries and prints
the series; EXPERIMENTS.md records the measured shapes against the
paper's.

Execution model: each driver first *declares* its full set of scenario
cells (:class:`~repro.parallel.cells.CellSpec` — one per scheduler ×
rate × seed × workload point), hands the whole batch to
:func:`~repro.parallel.run_cells`, then aggregates.  Cells are
independent simulations, so the batch fans out over ``jobs`` worker
processes and unchanged cells come back from the content-addressed
result cache; aggregation iterates the driver's own spec list, so the
produced series are bit-identical at any job count.  ``jobs=None`` and
``cache=None`` defer to the installed run context (built from the CLI's
``--jobs``/``--no-cache`` or the pytest plugin's options) and then to
``REPRO_JOBS``.

Scale note: ``scale`` shrinks benchmark iteration counts (default runs a
few simulated seconds instead of the paper's hundreds) and ``seeds``
averages repetitions.  Slowdowns, ratios and distribution shapes are the
reproduction targets, not absolute seconds (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import units
from repro.experiments.runner import (PAPER_RATES, SingleVmResult,
                                      SpecJbbResult)
from repro.metrics.report import format_series
from repro.metrics.runtime import ideal_slowdown
from repro.metrics.throughput import bops_score
from repro.parallel import run_cells
from repro.parallel.cache import ResultCache
from repro.parallel.cells import (CellSpec, WorkloadSpec, multi_vm_cell,
                                  single_vm_cell, specjbb_cell)
from repro.parallel.executor import CellResults
from repro.workloads.nas import NAS_PROFILES

#: Percent labels for the paper's four online rates.
RATE_LABELS = {1.0: "100", 2.0 / 3.0: "66.7", 0.4: "40", 2.0 / 9.0: "22.2"}

#: Type alias for the jobs knob threaded through every driver.
Jobs = Optional[Union[int, str]]


@dataclass
class FigureResult:
    """One reproduced figure: named series of (x, y) points.

    ``fingerprint`` digests the underlying cell results (sorted by cell
    key); a serial and an N-way parallel regeneration of the same figure
    must render the same value — it is the user-visible determinism
    token of the parallel fabric.
    """

    figure: str
    description: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: Dict[str, float] = field(default_factory=dict)
    fingerprint: Optional[str] = None

    def render(self) -> str:
        parts = [f"=== {self.figure}: {self.description}"]
        for name, points in self.series.items():
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            parts.append(format_series(name, xs, ys))
        if self.notes:
            parts.append("notes: " + ", ".join(
                f"{k}={v:.3f}" for k, v in self.notes.items()))
        if self.fingerprint is not None:
            parts.append(f"fingerprint: {self.fingerprint}")
        return "\n".join(parts)


# --------------------------------------------------------------------- #
# Cell vocabulary shared by the drivers
# --------------------------------------------------------------------- #
def _nas(name: str, scale: float, rounds: int = 1) -> WorkloadSpec:
    return WorkloadSpec("nas", name, scale=scale, rounds=rounds)


def _single(results: CellResults, spec: CellSpec) -> SingleVmResult:
    value = results.value(spec)
    assert isinstance(value, SingleVmResult)
    return value


def _mean_runtime(results: CellResults,
                  specs: Sequence[CellSpec]) -> float:
    total = 0.0
    for spec in specs:
        total += _single(results, spec).runtime_seconds
    return total / len(specs)


# --------------------------------------------------------------------- #
# Figure 1: LU under the Credit scheduler
# --------------------------------------------------------------------- #
def fig01_lu_runtime(scale: float = 0.6,
                     seeds: Sequence[int] = (1, 2),
                     jobs: Jobs = None,
                     cache: Optional[ResultCache] = None) -> FigureResult:
    """Fig 1(a): LU run time vs VCPU online rate under Credit."""
    result = FigureResult("Figure 1a",
                          "LU run time vs VCPU online rate (Credit)")
    grid = {rate: [single_vm_cell(_nas("LU", scale), "credit",
                                  online_rate=rate, seed=seed)
                   for seed in seeds]
            for rate in PAPER_RATES}
    results = run_cells([c for cells in grid.values() for c in cells],
                        jobs=jobs, cache=cache)
    pts = []
    for rate in PAPER_RATES:
        rt = _mean_runtime(results, grid[rate])
        pts.append((float(RATE_LABELS[rate]), rt))
    result.series["runtime_s"] = pts
    base = pts[0][1]
    result.series["slowdown"] = [(x, y / base) for x, y in pts]
    result.series["ideal_slowdown"] = [
        (float(RATE_LABELS[r]), ideal_slowdown(r)) for r in PAPER_RATES]
    result.fingerprint = results.combined_fingerprint()
    return result


def fig01_spinlock_counts(scale: float = 0.6,
                          seeds: Sequence[int] = (1, 2, 3),
                          window_s: float = 30.0,
                          jobs: Jobs = None,
                          cache: Optional[ResultCache] = None
                          ) -> FigureResult:
    """Fig 1(b): number of spinlocks with waits > 2^10 and > 2^20 cycles,
    per VCPU online rate (Credit).

    The paper counts within a fixed 30 s observation window while the
    benchmark runs, so at lower online rates *less of LU executes inside
    the window* and the >2^10 population shrinks, while the >2^20
    population still grows.  Our runs execute fixed work, so counts are
    normalised to the same fixed window (count / runtime * window).
    """
    result = FigureResult(
        "Figure 1b",
        f"spinlock wait counts per {window_s:.0f}s window (Credit)")
    grid = {rate: [single_vm_cell(_nas("LU", scale), "credit",
                                  online_rate=rate, seed=seed)
                   for seed in seeds]
            for rate in PAPER_RATES}
    results = run_cells([c for cells in grid.values() for c in cells],
                        jobs=jobs, cache=cache)
    over10, over20 = [], []
    for rate in PAPER_RATES:
        c10 = c20 = 0.0
        for spec in grid[rate]:
            r = _single(results, spec)
            norm = window_s / r.runtime_seconds
            c10 += r.spin_summary["over_2^10"] * norm
            c20 += r.spin_summary["over_2^20"] * norm
        x = float(RATE_LABELS[rate])
        over10.append((x, c10 / len(seeds)))
        over20.append((x, c20 / len(seeds)))
    result.series["waits_over_2^10"] = over10
    result.series["waits_over_2^20"] = over20
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figures 2 and 8: per-spinlock wait scatter
# --------------------------------------------------------------------- #
def fig02_wait_details(scheduler: str = "credit", scale: float = 0.6,
                       seed: int = 1,
                       jobs: Jobs = None,
                       cache: Optional[ResultCache] = None) -> FigureResult:
    """Fig 2 (Credit) / Fig 8 (ASMan): the detailed per-spinlock waiting
    time — (acquisition index, log2 wait) — at each online rate."""
    fig = "Figure 2" if scheduler == "credit" else "Figure 8"
    result = FigureResult(
        fig, f"per-spinlock wait detail under {scheduler}")
    cells = {rate: single_vm_cell(_nas("LU", scale), scheduler,
                                  online_rate=rate, seed=seed,
                                  collect_scatter=True)
             for rate in PAPER_RATES}
    results = run_cells(cells.values(), jobs=jobs, cache=cache)
    for rate in PAPER_RATES:
        r = _single(results, cells[rate])
        label = f"rate_{RATE_LABELS[rate]}%"
        result.series[label] = [(float(i), w) for i, w in r.spin_scatter]
        result.notes[f"max_log2_{RATE_LABELS[rate]}"] = \
            r.spin_summary["max_log2"]
    result.fingerprint = results.combined_fingerprint()
    return result


def fig08_wait_details_asman(scale: float = 0.6, seed: int = 1,
                             jobs: Jobs = None,
                             cache: Optional[ResultCache] = None
                             ) -> FigureResult:
    """Fig 8: the Fig 2 scatter under ASMan."""
    return fig02_wait_details("asman", scale, seed, jobs=jobs, cache=cache)


# --------------------------------------------------------------------- #
# Figure 7: LU run time, Credit vs ASMan
# --------------------------------------------------------------------- #
def fig07_lu_comparison(scale: float = 0.6,
                        seeds: Sequence[int] = (1, 2, 3),
                        jobs: Jobs = None,
                        cache: Optional[ResultCache] = None) -> FigureResult:
    """Fig 7: LU run time per online rate, Credit vs ASMan."""
    result = FigureResult("Figure 7",
                          "LU run time in VM V1: Credit vs ASMan")
    grid = {(sched, rate): [single_vm_cell(_nas("LU", scale), sched,
                                           online_rate=rate, seed=seed)
                            for seed in seeds]
            for sched in ("credit", "asman") for rate in PAPER_RATES}
    results = run_cells([c for cells in grid.values() for c in cells],
                        jobs=jobs, cache=cache)
    for sched in ("credit", "asman"):
        pts = []
        for rate in PAPER_RATES:
            rt = _mean_runtime(results, grid[(sched, rate)])
            pts.append((float(RATE_LABELS[rate]), rt))
        result.series[sched] = pts
    credit = dict(result.series["credit"])
    asman = dict(result.series["asman"])
    low = float(RATE_LABELS[2.0 / 9.0])
    result.notes["asman_saving_at_22.2%"] = 1.0 - asman[low] / credit[low]
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figure 9: slowdowns of all NAS benchmarks
# --------------------------------------------------------------------- #
def fig09_nas_slowdowns(rates: Sequence[float] = (2 / 3, 0.4, 2 / 9),
                        benchmarks: Optional[Sequence[str]] = None,
                        scale: float = 0.4,
                        seeds: Sequence[int] = (1, 2),
                        jobs: Jobs = None,
                        cache: Optional[ResultCache] = None) -> FigureResult:
    """Fig 9(a-c): per-benchmark slowdown at each reduced online rate for
    Credit and ASMan; Fig 9(d): the average slowdown."""
    names = list(benchmarks or NAS_PROFILES)
    result = FigureResult("Figure 9", "NAS benchmark slowdowns")
    base_cells = {name: [single_vm_cell(_nas(name, scale), "credit",
                                        online_rate=1.0, seed=seed)
                         for seed in seeds]
                  for name in names}
    grid = {(rate, sched, name): [
        single_vm_cell(_nas(name, scale), sched, online_rate=rate, seed=seed)
        for seed in seeds]
        for rate in rates for sched in ("credit", "asman") for name in names}
    batch = [c for cells in base_cells.values() for c in cells]
    batch += [c for cells in grid.values() for c in cells]
    results = run_cells(batch, jobs=jobs, cache=cache)
    bases = {name: _mean_runtime(results, base_cells[name])
             for name in names}
    averages: Dict[str, List[Tuple[float, float]]] = {
        "credit": [], "asman": []}
    for rate in rates:
        for sched in ("credit", "asman"):
            series = []
            for name in names:
                rt = _mean_runtime(results, grid[(rate, sched, name)])
                series.append((names.index(name), rt / bases[name]))
            key = f"{sched}_rate_{RATE_LABELS[rate]}%"
            result.series[key] = series
            mean_sd = sum(y for _, y in series) / len(series)
            averages[sched].append((float(RATE_LABELS[rate]), mean_sd))
    result.series["avg_credit"] = averages["credit"]
    result.series["avg_asman"] = averages["asman"]
    result.notes["benchmark_order"] = float(len(names))
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figure 10: SPECjbb throughput
# --------------------------------------------------------------------- #
def fig10_specjbb(rates: Sequence[float] = (2 / 3, 0.4, 2 / 9),
                  warehouses: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
                  window_ms: float = 1500.0,
                  seed: int = 1,
                  jobs: Jobs = None,
                  cache: Optional[ResultCache] = None) -> FigureResult:
    """Fig 10(a-c): throughput vs warehouses per rate; (d): the score
    (mean bops over warehouses >= 4)."""
    result = FigureResult("Figure 10", "SPECjbb2005 throughput (bops)")
    cells = {(rate, sched, w): specjbb_cell(
        w, scheduler=sched, online_rate=rate,
        window_cycles=units.ms(window_ms), seed=seed)
        for rate in rates for sched in ("credit", "asman")
        for w in warehouses}
    results = run_cells(cells.values(), jobs=jobs, cache=cache)
    scores: Dict[str, List[Tuple[float, float]]] = {
        "credit": [], "asman": []}
    for rate in rates:
        for sched in ("credit", "asman"):
            by_w: Dict[int, float] = {}
            for w in warehouses:
                r = results.value(cells[(rate, sched, w)])
                assert isinstance(r, SpecJbbResult)
                by_w[w] = r.bops
            key = f"{sched}_rate_{RATE_LABELS[rate]}%"
            result.series[key] = [(float(w), b) for w, b in by_w.items()]
            scores[sched].append(
                (float(RATE_LABELS[rate]), bops_score(by_w, 4)))
    result.series["score_credit"] = scores["credit"]
    result.series["score_asman"] = scores["asman"]
    result.fingerprint = results.combined_fingerprint()
    return result


# --------------------------------------------------------------------- #
# Figures 11 and 12: multiple VMs
# --------------------------------------------------------------------- #
#: The paper's four VM combinations (Section 5.3): (vm, label, family,
#: profile, concurrent) — declarative so combinations canonicalise.
COMBINATIONS: Dict[str, List[Tuple[str, str, str, str, bool]]] = {
    "fig11a": [
        ("V1", "256.bzip2", "speccpu", "256.bzip2", False),
        ("V2", "176.gcc", "speccpu", "176.gcc", False),
        ("V3", "SP", "nas", "SP", True),
        ("V4", "LU", "nas", "LU", True),
    ],
    "fig11b": [
        ("V1", "LU", "nas", "LU", True),
        ("V2", "LU", "nas", "LU", True),
        ("V3", "SP", "nas", "SP", True),
        ("V4", "SP", "nas", "SP", True),
    ],
    "fig12a": [
        ("V1", "256.bzip2", "speccpu", "256.bzip2", False),
        ("V2", "256.bzip2", "speccpu", "256.bzip2", False),
        ("V3", "176.gcc", "speccpu", "176.gcc", False),
        ("V4", "176.gcc", "speccpu", "176.gcc", False),
        ("V5", "SP", "nas", "SP", True),
        ("V6", "LU", "nas", "LU", True),
    ],
    "fig12b": [
        ("V1", "256.bzip2", "speccpu", "256.bzip2", False),
        ("V2", "176.gcc", "speccpu", "176.gcc", False),
        ("V3", "SP", "nas", "SP", True),
        ("V4", "SP", "nas", "SP", True),
        ("V5", "LU", "nas", "LU", True),
        ("V6", "LU", "nas", "LU", True),
    ],
}


def multi_vm_figure(combination: str, scale: float = 0.3,
                    seeds: Sequence[int] = (1, 2),
                    measure_rounds: int = 2,
                    rounds: int = 40,
                    jobs: Jobs = None,
                    cache: Optional[ResultCache] = None) -> FigureResult:
    """Figs 11-12: run one VM combination under Credit, ASMan and CON and
    report each VM's averaged round time (the paper's bar heights)."""
    combo = COMBINATIONS.get(combination)
    if combo is None:
        raise KeyError(f"unknown combination {combination!r}; "
                       f"choose from {sorted(COMBINATIONS)}")
    result = FigureResult(
        combination.replace("fig", "Figure "),
        "per-VM run time under Credit / ASMan / CON")
    deadline = units.seconds(600)
    assignments = tuple(
        (vm, WorkloadSpec(family, profile, scale=scale, rounds=rounds),
         concurrent)
        for vm, _, family, profile, concurrent in combo)
    cells = {(sched, seed): multi_vm_cell(
        assignments, scheduler=sched, seed=seed,
        measure_rounds=measure_rounds, deadline_cycles=deadline)
        for sched in ("credit", "asman", "con") for seed in seeds}
    results = run_cells(cells.values(), jobs=jobs, cache=cache)
    for sched in ("credit", "asman", "con"):
        acc = {vm: 0.0 for vm, _, _, _, _ in combo}
        for seed in seeds:
            r = results.value(cells[(sched, seed)])
            for vm in acc:
                acc[vm] += r.round_seconds[vm]  # type: ignore[attr-defined]
        result.series[sched] = [
            (i, acc[vm] / len(seeds))
            for i, (vm, _, _, _, _) in enumerate(combo)]
    labels = {i: f"{vm}:{label}"
              for i, (vm, label, _, _, _) in enumerate(combo)}
    result.notes.update({f"x{i}": float(i) for i in labels})
    result.description += "  [" + ", ".join(
        labels[i] for i in sorted(labels)) + "]"
    result.fingerprint = results.combined_fingerprint()
    return result


def fig11a(**kw) -> FigureResult:
    """Fig 11(a): bzip2 + gcc + SP + LU on four VMs."""
    return multi_vm_figure("fig11a", **kw)


def fig11b(**kw) -> FigureResult:
    """Fig 11(b): LU + LU + SP + SP on four VMs."""
    return multi_vm_figure("fig11b", **kw)


def fig12a(**kw) -> FigureResult:
    """Fig 12(a): four throughput VMs + SP + LU."""
    return multi_vm_figure("fig12a", **kw)


def fig12b(**kw) -> FigureResult:
    """Fig 12(b): two throughput VMs + SP, SP, LU, LU."""
    return multi_vm_figure("fig12b", **kw)
